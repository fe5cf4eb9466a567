package array

import (
	"raidsim/internal/disk"
	"raidsim/internal/layout"
	"raidsim/internal/obs"
)

// plainScheme is any redundancy-free organization: Base (independent
// disks) and RAID0 (pure striping). Reads go to the block's home disk;
// writes have a single copy, so a write targeting a dead slot is simply
// lost.
type plainScheme struct {
	noRedundancy
	lay layout.DataLayout
}

func (s *plainScheme) fetchRuns(rb *runBuf, lbas []int64) []run { return rb.dataRuns(s.lay, lbas) }

func (s *plainScheme) write(w writeOp) {
	b := s.c.newBatch(w)
	runs, dropped := s.c.filterWriteRuns(b.rb.dataRuns(s.lay, w.lbas))
	s.c.fs.lostWriteBlocks += int64(dropped)
	b.plainWrite(runs)
}

// noRedundancy is the degraded-mode mapping of a scheme with nothing to
// recover from: every failure loses data, nothing can rebuild a spare,
// and reads of a dead slot are unrecoverable. plainScheme has no
// redundancy; the RAID3 and parity-logging comparators have no
// degraded-mode model (New rejects fault configs for them).
type noRedundancy struct{ c *common }

func (s noRedundancy) onFail(int) { s.c.fs.dataLossEvents++ }

func (noRedundancy) rebuildSources(dst []int, _ int) []int { return dst }

func (noRedundancy) readFallback(run, disk.Priority, *obs.Span, func()) bool { return false }
