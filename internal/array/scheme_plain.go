package array

import (
	"raidsim/internal/disk"
	"raidsim/internal/layout"
	"raidsim/internal/obs"
)

// plainScheme is any redundancy-free organization: Base (independent
// disks) and RAID0 (pure striping). Reads go to the block's home disk;
// writes have a single copy, so a write targeting a dead slot is simply
// lost, and a failed drive is a data-loss event outright.
type plainScheme struct {
	c   *common
	lay layout.DataLayout
	o   Org
}

func (s *plainScheme) org() Org          { return s.o }
func (s *plainScheme) dataBlocks() int64 { return s.lay.DataBlocks() }
func (s *plainScheme) keepOldData() bool { return false }

func (s *plainScheme) fetchRuns(rb *runBuf, lbas []int64) []run { return rb.dataRuns(s.lay, lbas) }

func (s *plainScheme) write(w writeOp) {
	b := s.c.newBatch(w)
	runs, dropped := s.c.filterWriteRuns(b.rb.dataRuns(s.lay, w.lbas))
	s.c.fs.lostWriteBlocks += int64(dropped)
	b.plainWrite(runs)
}

// No redundancy: every failure loses data, nothing can rebuild a spare,
// and reads of a dead slot are unrecoverable.
func (s *plainScheme) onFail(int) { s.c.fs.dataLossEvents++ }

func (s *plainScheme) rebuildSources(int) []int { return nil }

func (s *plainScheme) readFallback(run, disk.Priority, *obs.Span, func()) bool { return false }
