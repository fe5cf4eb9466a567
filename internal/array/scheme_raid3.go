package array

import "raidsim/internal/layout"

// raid3Scheme models the byte-interleaved RAID3 comparator from the
// related work (Chen et al.): every logical block is spread as a 1/N
// slice over all N data disks, with byte-wise parity on a dedicated
// drive. Every request therefore occupies every arm — superb bandwidth
// for large transfers, and exactly the "many arms per small request"
// cost Gray et al. warn about for OLTP. Writes need no
// read-modify-write: the parity bytes of a block's slices derive from
// the new data alone.
//
// Addressing: a RAID4 layout with a one-block striping unit. Logical
// block l occupies a slice of physical block l/N on each drive (N
// logical blocks fill one physical block per drive, so an array of N+1
// drives stores N drives' worth of data — the same equal-capacity
// footing as RAID5), and disk N holds the parity slices. Spindles are
// synchronized, as RAID3 requires (New forces it).
type raid3Scheme struct {
	noRedundancy
	lay *layout.RAID4
}

// fetchRuns reads the slices off the N data disks; parity idles.
func (s *raid3Scheme) fetchRuns(rb *runBuf, lbas []int64) []run { return s.slices(rb, lbas, false) }

// write writes every data slice plus the parity slice, with no old-data
// reads.
func (s *raid3Scheme) write(w writeOp) {
	b := s.c.newBatch(w)
	s.c.parityAccesses++
	b.plainWrite(s.slices(&b.rb, w.lbas, true))
}

// slices lays out one run per data disk, plus the parity disk when
// parity is set, over the rows [l0/N, (l0+k-1)/N] the k contiguous
// blocks occupy. Each run's media pass is the drive's 1/N share of the
// blocks' sectors, at least one sector and at most the rows themselves.
func (s *raid3Scheme) slices(rb *runBuf, lbas []int64, parity bool) []run {
	row0 := s.lay.Map(lbas[0]).Block
	rows := s.lay.Map(lbas[len(lbas)-1]).Block - row0 + 1
	n, spb := s.lay.StripeWidth(), s.c.cfg.Spec.SectorsPerBlock()
	sectors := min(max((len(lbas)*spb+n-1)/n, 1), int(rows)*spb)
	disks := n
	if parity {
		disks++ // the parity disk, n
	}
	rb.runs = rb.runs[:0]
	for d := 0; d < disks; d++ {
		rb.runs = append(rb.runs, run{disk: d, start: row0, blocks: int32(rows), sectors: int32(sectors)})
	}
	return rb.runs
}
