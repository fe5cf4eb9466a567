package array

import (
	"slices"

	"raidsim/internal/layout"
)

// run is a physically contiguous span on one disk, with the logical
// blocks it carries in order. Every read copies a run, so the two
// lengths are narrowed to keep it at six words.
type run struct {
	disk   int
	start  int64 // physical block on the disk
	blocks int32
	// sectors, when positive, is the media pass in sectors (RAID3's
	// per-drive slice of each block); see disk.Request.TransferSectors.
	sectors int32
	lbas    []int64
}

// runBuf is reusable storage for the runs of one batch of logical
// blocks: the runs, the arena their lbas point into, and mapping
// scratch. Each run's lbas is a capacity-bounded window of the arena,
// valid until the buffer is next filled.
type runBuf struct {
	runs  []run
	arena []int64
	at    []int32 // run index of each mapped block
}

// dataRuns maps a list of logical blocks and merges them into per-disk
// physically contiguous runs, preserving order of first appearance. The
// input need not be contiguous (destage batches aren't).
func (b *runBuf) dataRuns(lay layout.DataLayout, lbas []int64) []run {
	b.runs, b.arena = b.runs[:0], b.arena[:0]
	b.add(lay, nil, lbas)
	return b.runs
}

// mirrorRuns lays out both copies of the blocks: the runs of the primary
// copies, then those of the secondary copies.
func (b *runBuf) mirrorRuns(lay layout.MirrorLayout, lbas []int64) []run {
	b.runs, b.arena = b.runs[:0], b.arena[:0]
	b.add(lay, nil, lbas)
	b.add(nil, lay, lbas)
	return b.runs
}

// add maps lbas through lay's homes, or alt's secondary copies when alt
// is non-nil, and appends their runs. Runs from an earlier add of the
// same fill are not merged into.
func (b *runBuf) add(lay layout.DataLayout, alt layout.MirrorLayout, lbas []int64) {
	base := len(b.runs)
	b.at = b.at[:0]
	for _, l := range lbas {
		var loc layout.Loc
		if alt != nil {
			loc = alt.Alt(l)
		} else {
			loc = lay.Map(l)
		}
		j := base
		for ; j < len(b.runs); j++ {
			r := &b.runs[j]
			if r.disk == loc.Disk && loc.Block == r.start+int64(r.blocks) {
				r.blocks++
				break
			}
		}
		if j == len(b.runs) {
			b.runs = append(b.runs, run{disk: loc.Disk, start: loc.Block, blocks: 1})
		}
		b.at = append(b.at, int32(j))
	}
	off := len(b.arena)
	b.arena = slices.Grow(b.arena, len(lbas))[:off+len(lbas)]
	for j := base; j < len(b.runs); j++ {
		r := &b.runs[j]
		r.lbas = b.arena[off : off : off+int(r.blocks)]
		off += int(r.blocks)
	}
	for k, l := range lbas {
		r := &b.runs[b.at[k]]
		r.lbas = append(r.lbas, l)
	}
}

// parityRun is a contiguous span of parity blocks on one disk, with
// full-stripe/partial classification: full means every stripe this run
// protects is entirely overwritten by the batch, so the new parity is
// computable without reading old data or old parity.
type parityRun struct {
	disk   int
	start  int64
	blocks int
	full   bool
}

// updatePlan is everything needed to apply a batch of block writes to a
// parity-protected layout.
type updatePlan struct {
	dataRuns   []run
	dataRMW    []bool // per data run: must read old data first
	parityRuns []parityRun
	// deps[i] lists indexes of RMW data runs whose old-data reads feed
	// parity run i.
	deps [][]int

	pinfos  []pinfo // build scratch: the parity blocks touched
	members []int64 // build scratch: one stripe's members
}

// pinfo is one parity block a batch touches: whether every stripe it
// protects is fully covered, and the data runs (by index) whose old data
// it needs.
type pinfo struct {
	loc     layout.Loc
	full    bool
	feeders []int
}

// build fills the plan, reusing its storage, for writing the given
// logical blocks, with the data runs laid out in rb. hasOld reports
// whether the pre-write image of a block is already in the controller
// (cache shadow); nil means never.
//
// A data run needs an RMW pass if any of its blocks belongs to a
// not-fully-covered stripe and lacks an old image. A parity run is "full"
// only if every parity block in it protects a fully covered stripe.
// Dependencies connect each partial parity run to the RMW data runs whose
// stripes it protects.
func (p *updatePlan) build(rb *runBuf, lay layout.ParityLayout, lbas []int64, hasOld func(int64) bool) {
	contig := true
	for i := 1; i < len(lbas); i++ {
		if lbas[i] != lbas[i-1]+1 {
			contig = false
			break
		}
	}

	p.dataRuns = rb.dataRuns(lay, lbas)
	p.dataRMW = slices.Grow(p.dataRMW[:0], len(p.dataRuns))[:len(p.dataRuns)]
	clear(p.dataRMW)
	// Which parity locations does each data run touch, and is the block's
	// stripe covered?
	p.pinfos = p.pinfos[:0]
	for ri, r := range p.dataRuns {
		for _, l := range r.lbas {
			cov := p.covered(lay, lbas, contig, l)
			if !cov && (hasOld == nil || !hasOld(l)) {
				p.dataRMW[ri] = true
			}
			pi := p.parityEntry(lay.Parity(l))
			if !cov {
				pi.full = false
				pi.feeders = appendUnique(pi.feeders, ri)
			}
		}
	}

	// Merge parity blocks into contiguous same-class runs and union their
	// feeder sets, keeping only feeders that are actually RMW runs.
	p.parityRuns, p.deps = p.parityRuns[:0], p.deps[:0]
	for k := range p.pinfos {
		pi := &p.pinfos[k]
		i := 0
		for ; i < len(p.parityRuns); i++ {
			pr := &p.parityRuns[i]
			if pr.disk == pi.loc.Disk && pi.loc.Block == pr.start+int64(pr.blocks) && pr.full == pi.full {
				pr.blocks++
				break
			}
		}
		if i == len(p.parityRuns) {
			p.parityRuns = append(p.parityRuns, parityRun{
				disk: pi.loc.Disk, start: pi.loc.Block, blocks: 1, full: pi.full,
			})
			var d *[]int
			p.deps, d = extend(p.deps)
			*d = (*d)[:0]
		}
		for _, f := range pi.feeders {
			if p.dataRMW[f] {
				p.deps[i] = appendUnique(p.deps[i], f)
			}
		}
	}
}

// parityEntry returns the plan's entry for the parity block at loc, adding a
// fully covered one with no feeders on first sight. The pointer is valid
// until the next call.
func (p *updatePlan) parityEntry(loc layout.Loc) *pinfo {
	for k := range p.pinfos {
		if p.pinfos[k].loc == loc {
			return &p.pinfos[k]
		}
	}
	var pi *pinfo
	p.pinfos, pi = extend(p.pinfos)
	pi.loc, pi.full, pi.feeders = loc, true, pi.feeders[:0]
	return pi
}

// covered reports whether every member of l's stripe is in the batch
// lbas (contig: lbas is one ascending span), so the stripe's new parity
// needs no old data. A batch smaller than a stripe covers none, which
// spares small writes the member lookup.
func (p *updatePlan) covered(lay layout.ParityLayout, lbas []int64, contig bool, l int64) bool {
	if len(lbas) < lay.StripeWidth() {
		return false
	}
	p.members = lay.StripeMembers(p.members[:0], l)
	if len(p.members) < lay.StripeWidth() {
		return false
	}
	for _, m := range p.members {
		if contig {
			if m < lbas[0] || m >= lbas[0]+int64(len(lbas)) {
				return false
			}
		} else if !slices.Contains(lbas, m) {
			return false
		}
	}
	return true
}

// extend grows s by one element, reusing the storage the new slot held
// in an earlier fill when capacity allows, and returns the slot.
func extend[T any](s []T) ([]T, *T) {
	if len(s) < cap(s) {
		s = s[:len(s)+1]
	} else {
		var zero T
		s = append(s, zero)
	}
	return s, &s[len(s)-1]
}

func appendUnique(s []int, v int) []int {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

// totalRuns returns the number of disk accesses the plan will issue.
func (p *updatePlan) totalRuns() int { return len(p.dataRuns) + len(p.parityRuns) }
