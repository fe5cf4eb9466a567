// Package blockdev is a functional (data-carrying) implementation of the
// redundant layouts the simulator models: an in-memory array of disks
// storing real bytes with real XOR parity. It exists to validate the
// parity math the performance model assumes — writes maintain parity via
// the same read-modify-write or full-stripe rules, any single disk can
// fail, and reads reconstruct its contents from the survivors.
package blockdev

import (
	"bytes"
	"fmt"

	"raidsim/internal/layout"
)

// Store is a parity-protected in-memory block device.
type Store struct {
	lay       layout.ParityLayout
	blockSize int
	disks     [][][]byte // [disk][physical block] -> data (nil = zero)
	failed    []bool

	// Stats
	Reads, Writes, Reconstructions, DegradedWrites int64
}

// New builds a store over the given layout with blockSize-byte blocks.
func New(lay layout.ParityLayout, blockSize int) *Store {
	if blockSize <= 0 {
		panic("blockdev: block size must be positive")
	}
	s := &Store{
		lay:       lay,
		blockSize: blockSize,
		disks:     make([][][]byte, lay.Disks()),
		failed:    make([]bool, lay.Disks()),
	}
	return s
}

// Capacity returns the number of addressable logical blocks.
func (s *Store) Capacity() int64 { return s.lay.DataBlocks() }

func (s *Store) rawRead(loc layout.Loc) []byte {
	d := s.disks[loc.Disk]
	if d == nil || loc.Block >= int64(len(d)) || d[loc.Block] == nil {
		return make([]byte, s.blockSize) // unwritten blocks read as zero
	}
	out := make([]byte, s.blockSize)
	copy(out, d[loc.Block])
	return out
}

func (s *Store) rawWrite(loc layout.Loc, data []byte) {
	if s.disks[loc.Disk] == nil {
		s.disks[loc.Disk] = make([][]byte, 0)
	}
	for int64(len(s.disks[loc.Disk])) <= loc.Block {
		s.disks[loc.Disk] = append(s.disks[loc.Disk], nil)
	}
	b := make([]byte, s.blockSize)
	copy(b, data)
	s.disks[loc.Disk][loc.Block] = b
}

func xorInto(dst, src []byte) {
	for i := range dst {
		dst[i] ^= src[i]
	}
}

// Write stores one logical block, maintaining parity with the
// read-modify-write rule: new parity = old parity XOR old data XOR new
// data. With a single disk failed it degrades gracefully: a write whose
// home disk is down folds the new data into parity alone (parity = new
// data XOR all surviving members), so a later Read or Rebuild recovers
// it; a write whose parity disk is down lands on the home disk with no
// parity update. Writes striking two failed disks report data loss.
func (s *Store) Write(lba int64, data []byte) error {
	if len(data) != s.blockSize {
		return fmt.Errorf("blockdev: write of %d bytes, block size is %d", len(data), s.blockSize)
	}
	if lba < 0 || lba >= s.Capacity() {
		return fmt.Errorf("blockdev: lba %d out of range", lba)
	}
	home := s.lay.Map(lba)
	ploc := s.lay.Parity(lba)
	switch {
	case s.failed[home.Disk] && s.failed[ploc.Disk]:
		return fmt.Errorf("blockdev: write lost, double failure (disks %d and %d)", home.Disk, ploc.Disk)
	case s.failed[home.Disk]:
		// Degraded write to a dead home: the only remaining copy of this
		// block is the one encoded in parity. Recompute parity from the
		// surviving stripe members plus the new data.
		parity := make([]byte, s.blockSize)
		copy(parity, data)
		for _, m := range s.lay.StripeMembers(nil, lba) {
			if m == lba {
				continue
			}
			mloc := s.lay.Map(m)
			if s.failed[mloc.Disk] {
				return fmt.Errorf("blockdev: write lost, double failure (disks %d and %d)", home.Disk, mloc.Disk)
			}
			xorInto(parity, s.rawRead(mloc))
		}
		s.rawWrite(ploc, parity)
		s.Writes++
		s.DegradedWrites++
		return nil
	case s.failed[ploc.Disk]:
		// Parity disk down: plain unprotected write to the home disk.
		s.rawWrite(home, data)
		s.Writes++
		s.DegradedWrites++
		return nil
	}
	old := s.rawRead(home)
	parity := s.rawRead(ploc)
	xorInto(parity, old)
	xorInto(parity, data)
	s.rawWrite(home, data)
	s.rawWrite(ploc, parity)
	s.Writes++
	return nil
}

// Read returns one logical block, reconstructing from parity and the
// surviving stripe members if its home disk is failed.
func (s *Store) Read(lba int64) ([]byte, error) {
	if lba < 0 || lba >= s.Capacity() {
		return nil, fmt.Errorf("blockdev: lba %d out of range", lba)
	}
	home := s.lay.Map(lba)
	if !s.failed[home.Disk] {
		s.Reads++
		return s.rawRead(home), nil
	}
	// Degraded read: XOR the parity block with every surviving member.
	ploc := s.lay.Parity(lba)
	if s.failed[ploc.Disk] {
		return nil, fmt.Errorf("blockdev: double failure (disks %d and %d)", home.Disk, ploc.Disk)
	}
	out := s.rawRead(ploc)
	for _, m := range s.lay.StripeMembers(nil, lba) {
		if m == lba {
			continue
		}
		mloc := s.lay.Map(m)
		if s.failed[mloc.Disk] {
			return nil, fmt.Errorf("blockdev: double failure (disks %d and %d)", home.Disk, mloc.Disk)
		}
		xorInto(out, s.rawRead(mloc))
	}
	s.Reads++
	s.Reconstructions++
	return out, nil
}

// FailDisk marks a disk as failed, discarding its contents.
func (s *Store) FailDisk(disk int) error {
	if disk < 0 || disk >= s.lay.Disks() {
		return fmt.Errorf("blockdev: no disk %d", disk)
	}
	if s.failed[disk] {
		return fmt.Errorf("blockdev: disk %d already failed", disk)
	}
	s.failed[disk] = true
	s.disks[disk] = nil
	return nil
}

// FailedDisks returns the indexes of failed disks.
func (s *Store) FailedDisks() []int {
	var out []int
	for i, f := range s.failed {
		if f {
			out = append(out, i)
		}
	}
	return out
}

// Rebuild reconstructs the failed disk onto a fresh replacement by
// recomputing every logical and parity block that lived on it. It
// returns the number of blocks reconstructed.
func (s *Store) Rebuild(disk int) (int64, error) {
	if disk < 0 || disk >= s.lay.Disks() {
		return 0, fmt.Errorf("blockdev: no disk %d", disk)
	}
	if !s.failed[disk] {
		return 0, fmt.Errorf("blockdev: disk %d is not failed", disk)
	}
	for _, f := range s.FailedDisks() {
		if f != disk {
			return 0, fmt.Errorf("blockdev: cannot rebuild with another disk (%d) failed", f)
		}
	}
	s.failed[disk] = false // survivors readable; target writable below
	var rebuilt int64

	// Data blocks whose home is the failed disk: reconstruct via the
	// degraded-read rule (all survivors are intact).
	for lba := int64(0); lba < s.Capacity(); lba++ {
		home := s.lay.Map(lba)
		if home.Disk != disk {
			continue
		}
		block := s.rawRead(s.lay.Parity(lba))
		for _, m := range s.lay.StripeMembers(nil, lba) {
			if m == lba {
				continue
			}
			xorInto(block, s.rawRead(s.lay.Map(m)))
		}
		if !allZero(block) {
			s.rawWrite(home, block)
			rebuilt++
		}
	}
	// Parity blocks on the failed disk: recompute as the XOR of their
	// stripe members.
	seen := make(map[int64]bool)
	for lba := int64(0); lba < s.Capacity(); lba++ {
		ploc := s.lay.Parity(lba)
		if ploc.Disk != disk || seen[ploc.Block] {
			continue
		}
		seen[ploc.Block] = true
		parity := make([]byte, s.blockSize)
		for _, m := range s.lay.StripeMembers(nil, lba) {
			xorInto(parity, s.rawRead(s.lay.Map(m)))
		}
		if !allZero(parity) {
			s.rawWrite(ploc, parity)
			rebuilt++
		}
	}
	return rebuilt, nil
}

// VerifyParity checks every written stripe's parity and returns the
// first inconsistency found, or nil.
func (s *Store) VerifyParity() error {
	checked := make(map[layout.Loc]bool)
	for lba := int64(0); lba < s.Capacity(); lba++ {
		ploc := s.lay.Parity(lba)
		if checked[ploc] {
			continue
		}
		checked[ploc] = true
		want := s.rawRead(ploc)
		got := make([]byte, s.blockSize)
		for _, m := range s.lay.StripeMembers(nil, lba) {
			xorInto(got, s.rawRead(s.lay.Map(m)))
		}
		if !bytes.Equal(want, got) {
			return fmt.Errorf("blockdev: parity mismatch at parity block disk=%d block=%d (protecting lba %d)",
				ploc.Disk, ploc.Block, lba)
		}
	}
	return nil
}

func allZero(b []byte) bool {
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}
