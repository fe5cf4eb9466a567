package array

import (
	"raidsim/internal/disk"
	"raidsim/internal/layout"
	"raidsim/internal/obs"
	"raidsim/internal/sim"
)

// parityScheme is an N+1 rotating- or area-parity organization: RAID5
// and Parity Striping. Small writes read old data and old parity to
// compute new parity; full-stripe writes overwrite parity directly. The
// configured synchronization policy coordinates the two.
type parityScheme struct {
	c   *common
	lay layout.ParityLayout
}

func (s *parityScheme) fetchRuns(rb *runBuf, lbas []int64) []run { return rb.dataRuns(s.lay, lbas) }

func (s *parityScheme) write(w writeOp) {
	if s.c.degradedNow() {
		s.c.parityDegradedWrite(s.lay, w)
		return
	}
	b := s.c.newBatch(w)
	b.plan.build(&b.rb, s.lay, w.lbas, w.hasOld)
	if nd := len(b.plan.dataRuns); nd > 1 && w.spread > 0 {
		b.stagger = w.spread / sim.Time(nd)
	}
	b.policy = s.c.cfg.Sync
	b.nbuf = b.plan.totalRuns()
	b.admit(b.nbuf, b.updateFn)
}

func (s *parityScheme) onFail(d int) { s.c.parityOnFail(d) }
func (s *parityScheme) rebuildSources(dst []int, d int) []int {
	return s.c.parityRebuildSources(dst, d)
}
func (s *parityScheme) readFallback(rn run, pri disk.Priority, op *obs.Span, onDone func()) bool {
	return s.c.parityReadFallback(s.lay, rn, pri, op, onDone)
}

// The N+1 parity degraded mapping, shared by RAID5, Parity Striping and
// RAID4: reads of a dead disk reconstruct from the surviving members
// plus parity, a rebuild reads every other disk, and a second concurrent
// failure loses data.

func (c *common) parityOnFail(d int) {
	for i := range c.disks {
		if i != d && c.fs.failed[i] {
			c.fs.dataLossEvents++
			break
		}
	}
}

func (c *common) parityRebuildSources(dst []int, d int) []int {
	n := len(dst)
	for i := range c.disks {
		if i == d {
			continue
		}
		if c.fs.failed[i] {
			return dst[:n]
		}
		dst = append(dst, i)
	}
	return dst
}

func (c *common) parityReadFallback(lay layout.ParityLayout, rn run, pri disk.Priority, op *obs.Span, onDone func()) bool {
	// Reconstruct each lost logical block: read its surviving stripe
	// members and the stripe's parity block, XOR in the controller.
	// Physical runs with no logical blocks attached (rebuild traffic)
	// have nothing to map and recover for free.
	var srcs []layout.Loc
	for _, l := range rn.lbas {
		for _, m := range lay.StripeMembers(nil, l) {
			if m == l {
				continue
			}
			loc := lay.Map(m)
			if c.fs.failed[loc.Disk] {
				return false
			}
			srcs = append(srcs, loc)
		}
		p := lay.Parity(l)
		if c.fs.failed[p.Disk] {
			return false
		}
		srcs = append(srcs, p)
	}
	done := newLatch(len(srcs), onDone)
	for _, s := range srcs {
		var leg *obs.Span
		if op != nil {
			leg = op.Child("reconstruct", c.eng.Now())
			leg.SetBlocks(1)
		}
		c.mediaRead(run{disk: s.Disk, start: s.Block, blocks: 1}, pri, 0, 0, leg, done.done)
	}
	return true
}

// parityDegradedWrite applies a write batch to a parity layout with
// failures present, behind the standard envelope.
func (c *common) parityDegradedWrite(lay layout.ParityLayout, w writeOp) {
	b := c.newBatch(w)
	b.nbuf = len(w.lbas)
	b.admit(b.nbuf, func() { c.degradedUpdate(lay, w.lbas, w.pri, w.span, b.finishFn) })
}

// degradedUpdate applies a batch of block writes to a parity layout with
// failures present, block at a time (run merging and policy scheduling
// don't survive the per-block case analysis).
func (c *common) degradedUpdate(lay layout.ParityLayout, lbas []int64, pri disk.Priority, sp *obs.Span, onDone func()) {
	done := newLatch(len(lbas), onDone)
	for _, l := range lbas {
		c.degradedWriteBlock(lay, l, pri, sp, done.done)
	}
}

// degradedWriteBlock writes one logical block to a parity layout under
// failures, by the standard degraded-mode RAID rules:
//
//   - home dead, parity alive: fold the write into parity — read the
//     surviving stripe members, then overwrite parity with
//     XOR(new data, survivors).
//   - parity dead, home alive: plain data write, no parity to maintain.
//   - both alive (or rebuilding): the usual data-RMW + parity-RMW pair,
//     disk-first style.
//   - both dead: the write has nowhere to land.
func (c *common) degradedWriteBlock(lay layout.ParityLayout, l int64, pri disk.Priority, sp *obs.Span, onDone func()) {
	home := lay.Map(l)
	p := lay.Parity(l)
	homeDown := c.writeDown(home.Disk)
	parityDown := c.writeDown(p.Disk)
	opSpan := func(name string) *obs.Span {
		if sp == nil {
			return nil
		}
		op := sp.Child(name, c.eng.Now())
		op.SetBlocks(1)
		return op
	}
	switch {
	case homeDown && parityDown:
		c.fs.lostWriteBlocks++
		c.eng.After(0, onDone)
	case homeDown:
		var srcs []layout.Loc
		for _, m := range lay.StripeMembers(nil, l) {
			if m == l {
				continue
			}
			loc := lay.Map(m)
			if c.fs.failed[loc.Disk] {
				// A second data disk is dead too; the stripe cannot hold
				// this write.
				c.fs.lostWriteBlocks++
				c.eng.After(0, onDone)
				return
			}
			srcs = append(srcs, loc)
		}
		c.parityAccesses++
		read := newLatch(len(srcs), func() {
			c.disks[p.Disk].Submit(&disk.Request{
				StartBlock: p.Block, Blocks: 1, Write: true,
				Priority: pri, Span: opSpan("write-parity"), OnDone: onDone,
			})
		})
		for _, s := range srcs {
			c.mediaRead(run{disk: s.Disk, start: s.Block, blocks: 1}, pri, 0, 0, opSpan("reconstruct"), read.done)
		}
	case parityDown:
		c.disks[home.Disk].Submit(&disk.Request{
			StartBlock: home.Block, Blocks: 1, Write: true,
			Priority: pri, Span: opSpan("write-data"), OnDone: onDone,
		})
	default:
		readDone := false
		c.parityAccesses++
		all := newLatch(2, onDone)
		dreq := &disk.Request{
			StartBlock: home.Block, Blocks: 1, Write: true, RMW: true,
			Priority:   pri,
			Span:       opSpan("rmw-data"),
			OnReadDone: func() { readDone = true },
			OnDone:     all.done,
		}
		dreq.OnStart = func() {
			c.disks[p.Disk].Submit(&disk.Request{
				StartBlock: p.Block, Blocks: 1, Write: true, RMW: true,
				Priority: pri, Ready: func() bool { return readDone },
				Span:   opSpan("rmw-parity"),
				OnDone: all.done,
			})
		}
		c.disks[home.Disk].Submit(dreq)
	}
}
