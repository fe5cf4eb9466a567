package array

import (
	"raidsim/internal/disk"
	"raidsim/internal/layout"
	"raidsim/internal/obs"
)

// mirrorScheme is any organization where every block has a partner copy
// on the adjacent drive: the paper's Mirror (whole-disk pairs) and the
// RAID1/0 extension (striped mirror pairs). Both layouts put the primary
// copy on an even drive 2d and the secondary on 2d+1, so the partner of
// any physical disk is disk^1 and one scheme serves both — the layered
// pipeline's composability payoff.
//
// Writes update both copies (response is the max of the two); reads go
// to the copy whose arm is nearer the target cylinder, with queue length
// as tie-break (the paper's shortest-seek optimization).
type mirrorScheme struct {
	c   *common
	lay layout.MirrorLayout
}

// fetchRuns picks, per run, the mirror copy with the shorter seek. A
// dead copy never wins: reads fail over to the survivor.
func (s *mirrorScheme) fetchRuns(rb *runBuf, lbas []int64) []run {
	prim := rb.dataRuns(s.lay, lbas)
	for i := range prim {
		rn := &prim[i]
		if pickMirrorCopy(s.c, rn.disk, rn.start) {
			rn.disk++
		}
	}
	return prim
}

// pickMirrorCopy reports whether a read of physical block start should go
// to the secondary copy (primary+1): the survivor when one copy is dead,
// otherwise the shorter seek with queue length as tie-break.
func pickMirrorCopy(c *common, primary int, start int64) bool {
	if c.fs.nfailed > 0 {
		p0, p1 := c.fs.failed[primary], c.fs.failed[primary+1]
		if p0 && !p1 {
			c.fs.failoverReads++
			return true
		}
		if p1 {
			return false // secondary dead (or both; fallback handles that)
		}
	}
	d0, d1 := c.disks[primary], c.disks[primary+1]
	cyl := d0.CylinderOf(start)
	dist0 := max(d0.Cylinder()-cyl, cyl-d0.Cylinder())
	dist1 := max(d1.Cylinder()-cyl, cyl-d1.Cylinder())
	return dist1 < dist0 || (dist1 == dist0 && d1.QueueLen() < d0.QueueLen())
}

func (s *mirrorScheme) write(w writeOp) {
	b := s.c.newBatch(w)
	runs := b.rb.mirrorRuns(s.lay, w.lbas)
	if s.c.degradedNow() {
		// Writes degrade to the surviving copy (or the rebuilding spare);
		// a block is lost only when both copies of its pair are gone.
		var dropped int
		runs, dropped = s.c.filterWriteRuns(runs)
		if dropped > 0 {
			for _, l := range w.lbas {
				if s.c.writeDown(s.lay.Map(l).Disk) && s.c.writeDown(s.lay.Alt(l).Disk) {
					s.c.fs.lostWriteBlocks++
				}
			}
		}
	}
	b.plainWrite(runs)
}

// Mirrored-pair degraded mapping: reads fail over to the partner copy,
// a dead slot rebuilds by copying the partner, and data is lost only
// when both copies of a pair are down.
func (s *mirrorScheme) onFail(d int) {
	if s.c.fs.failed[d^1] {
		s.c.fs.dataLossEvents++
	}
}

func (s *mirrorScheme) rebuildSources(dst []int, d int) []int {
	if s.c.fs.failed[d^1] {
		return dst
	}
	return append(dst, d^1)
}

func (s *mirrorScheme) readFallback(rn run, pri disk.Priority, op *obs.Span, onDone func()) bool {
	alt := rn.disk ^ 1
	if s.c.fs.failed[alt] {
		return false
	}
	s.c.fs.failoverReads++
	var leg *obs.Span
	if op != nil {
		leg = op.Child("failover-read", s.c.eng.Now())
		leg.SetBlocks(int(rn.blocks))
	}
	s.c.mediaRead(run{disk: alt, start: rn.start, blocks: rn.blocks}, pri, 0, 0, leg, onDone)
	return true
}
