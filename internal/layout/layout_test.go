package layout

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
)

// checkDataBijective verifies that Map is injective and in-bounds over
// the whole logical space.
func checkDataBijective(t *testing.T, lay DataLayout, bpd int64) map[Loc]int64 {
	t.Helper()
	seen := make(map[Loc]int64)
	for l := int64(0); l < lay.DataBlocks(); l++ {
		loc := lay.Map(l)
		if loc.Disk < 0 || loc.Disk >= lay.Disks() {
			t.Fatalf("Map(%d) disk %d out of range", l, loc.Disk)
		}
		if loc.Block < 0 || loc.Block >= bpd {
			t.Fatalf("Map(%d) block %d out of range", l, loc.Block)
		}
		if prev, dup := seen[loc]; dup {
			t.Fatalf("Map collision: %d and %d both at %+v", prev, l, loc)
		}
		seen[loc] = l
	}
	return seen
}

// checkParity verifies the ParityLayout invariants: parity on a different
// disk than the data, parity never collides with data, stripe members are
// mutually consistent and on distinct disks.
func checkParity(t *testing.T, lay ParityLayout, dataLocs map[Loc]int64) {
	t.Helper()
	width := lay.StripeWidth()
	var members []int64
	for l := int64(0); l < lay.DataBlocks(); l++ {
		p := lay.Parity(l)
		home := lay.Map(l)
		if p.Disk == home.Disk {
			t.Fatalf("Parity(%d) on the data's own disk %d", l, p.Disk)
		}
		if other, clash := dataLocs[p]; clash {
			t.Fatalf("Parity(%d) at %+v collides with data block %d", l, p, other)
		}
		members = lay.StripeMembers(members[:0], l)
		if len(members) > width {
			t.Fatalf("StripeMembers(%d): %d members exceed width %d", l, len(members), width)
		}
		foundSelf := false
		disks := map[int]bool{p.Disk: true}
		for _, m := range members {
			if m == l {
				foundSelf = true
			}
			mp := lay.Parity(m)
			if mp != p {
				t.Fatalf("StripeMembers(%d): member %d has parity %+v, want %+v", l, m, mp, p)
			}
			md := lay.Map(m).Disk
			if disks[md] {
				t.Fatalf("StripeMembers(%d): two stripe blocks on disk %d", l, md)
			}
			disks[md] = true
		}
		if !foundSelf {
			t.Fatalf("StripeMembers(%d) does not contain the block itself", l)
		}
	}
}

func TestBaseLayout(t *testing.T) {
	const n, bpd = 4, 96
	lay := NewBase(n, bpd)
	if lay.Disks() != n {
		t.Fatalf("Disks() = %d, want %d", lay.Disks(), n)
	}
	if lay.DataBlocks() != n*bpd {
		t.Fatalf("DataBlocks() = %d, want %d", lay.DataBlocks(), n*bpd)
	}
	checkDataBijective(t, lay, bpd)
	// Contiguity: consecutive logical blocks on one disk are physically
	// consecutive.
	for l := int64(0); l < lay.DataBlocks()-1; l++ {
		a, b := lay.Map(l), lay.Map(l+1)
		if a.Disk == b.Disk && b.Block != a.Block+1 {
			t.Fatalf("Base not contiguous at %d", l)
		}
	}
}

func TestRAID0Layout(t *testing.T) {
	const bpd = 240
	for _, c := range raid5Configs() {
		lay := NewRAID0(c.n, bpd, c.su)
		if lay.Disks() != c.n {
			t.Fatalf("Disks() = %d, want %d", lay.Disks(), c.n)
		}
		want := (bpd / int64(c.su)) * int64(c.n) * int64(c.su)
		if lay.DataBlocks() != want {
			t.Fatalf("DataBlocks() = %d, want %d", lay.DataBlocks(), want)
		}
		checkDataBijective(t, lay, bpd)
	}
	// Consecutive units rotate across disks.
	lay := NewRAID0(4, 240, 2)
	if lay.Map(0).Disk != 0 || lay.Map(2).Disk != 1 || lay.Map(8).Disk != 0 {
		t.Fatal("RAID0 striping order wrong")
	}
}

func TestMirrorLayout(t *testing.T) {
	const n, bpd = 3, 64
	lay := NewMirror(n, bpd)
	if lay.Disks() != 2*n {
		t.Fatalf("Disks() = %d, want %d", lay.Disks(), 2*n)
	}
	checkDataBijective(t, lay, bpd)
	for l := int64(0); l < lay.DataBlocks(); l++ {
		p, a := lay.Map(l), lay.Alt(l)
		if a.Disk != p.Disk+1 || a.Block != p.Block {
			t.Fatalf("Alt(%d) = %+v, want disk %d block %d", l, a, p.Disk+1, p.Block)
		}
		if p.Disk%2 != 0 {
			t.Fatalf("Map(%d) primary on odd disk %d", l, p.Disk)
		}
	}
}

func TestRAID10Layout(t *testing.T) {
	const bpd = 240
	for _, c := range raid5Configs() {
		lay := NewRAID10(c.n, bpd, c.su)
		if lay.Disks() != 2*c.n {
			t.Fatalf("Disks() = %d, want %d", lay.Disks(), 2*c.n)
		}
		want := (bpd / int64(c.su)) * int64(c.su) * int64(c.n)
		if lay.DataBlocks() != want {
			t.Fatalf("DataBlocks() = %d, want %d", lay.DataBlocks(), want)
		}
		checkDataBijective(t, lay, bpd)
		for l := int64(0); l < lay.DataBlocks(); l++ {
			p, a := lay.Map(l), lay.Alt(l)
			if p.Disk%2 != 0 {
				t.Fatalf("Map(%d) primary on odd disk %d", l, p.Disk)
			}
			if a.Disk != p.Disk+1 || a.Block != p.Block {
				t.Fatalf("Alt(%d) = %+v, want disk %d block %d", l, a, p.Disk+1, p.Block)
			}
		}
	}
	// Consecutive units rotate across pairs, like RAID0 across disks.
	lay := NewRAID10(4, 240, 2)
	if lay.Map(0).Disk != 0 || lay.Map(2).Disk != 2 || lay.Map(8).Disk != 0 {
		t.Fatal("RAID10 striping order wrong")
	}
}

func raid5Configs() []struct{ n, su int } {
	return []struct{ n, su int }{
		{2, 1}, {3, 1}, {4, 2}, {5, 4}, {10, 1}, {10, 8}, {7, 3},
	}
}

func TestRAID5Invariants(t *testing.T) {
	const bpd = 240
	for _, c := range raid5Configs() {
		c := c
		t.Run(fmt.Sprintf("n%d-su%d", c.n, c.su), func(t *testing.T) {
			lay := NewRAID5(c.n, bpd, c.su)
			if lay.Disks() != c.n+1 {
				t.Fatalf("Disks() = %d", lay.Disks())
			}
			want := (bpd / int64(c.su)) * int64(c.n) * int64(c.su)
			if lay.DataBlocks() != want {
				t.Fatalf("DataBlocks() = %d, want %d", lay.DataBlocks(), want)
			}
			locs := checkDataBijective(t, lay, bpd)
			checkParity(t, lay, locs)
			// Parity rotates: every disk holds some parity.
			counts := make([]int64, lay.Disks())
			seen := make(map[Loc]bool)
			for l := int64(0); l < lay.DataBlocks(); l++ {
				p := lay.Parity(l)
				if !seen[p] {
					seen[p] = true
					counts[p.Disk]++
				}
			}
			for d, cnt := range counts {
				if cnt == 0 {
					t.Errorf("disk %d holds no parity; rotation broken", d)
				}
			}
			// Balanced to within one stripe's worth.
			var min, max int64 = 1 << 62, 0
			for _, cnt := range counts {
				if cnt < min {
					min = cnt
				}
				if cnt > max {
					max = cnt
				}
			}
			if max-min > int64(c.su)*2 {
				t.Errorf("parity imbalance: min %d max %d", min, max)
			}
		})
	}
}

func TestRAID4Invariants(t *testing.T) {
	const bpd = 240
	for _, c := range raid5Configs() {
		c := c
		t.Run(fmt.Sprintf("n%d-su%d", c.n, c.su), func(t *testing.T) {
			lay := NewRAID4(c.n, bpd, c.su)
			locs := checkDataBijective(t, lay, bpd)
			checkParity(t, lay, locs)
			for l := int64(0); l < lay.DataBlocks(); l++ {
				if p := lay.Parity(l); p.Disk != lay.ParityDisk() {
					t.Fatalf("Parity(%d) on disk %d, want dedicated disk %d", l, p.Disk, lay.ParityDisk())
				}
				if home := lay.Map(l); home.Disk == lay.ParityDisk() {
					t.Fatalf("data block %d mapped to the parity disk", l)
				}
			}
		})
	}
}

func TestParityStripingInvariants(t *testing.T) {
	const bpd = 264 // divisible by several n+1 values
	for _, n := range []int{2, 3, 5, 10} {
		for _, pl := range []Placement{MiddlePlacement, EndPlacement} {
			for _, unit := range []int64{0, 4, 8} {
				n, pl, unit := n, pl, unit
				t.Run(fmt.Sprintf("n%d-%s-u%d", n, pl, unit), func(t *testing.T) {
					lay := NewParityStriping(n, bpd, pl, unit)
					locs := checkDataBijective(t, lay, bpd)
					checkParity(t, lay, locs)
					// All parity lives in each disk's parity slot.
					a := lay.areaBlocks()
					var slot int64
					if pl == EndPlacement {
						slot = int64(n)
					} else {
						slot = int64(n+1) / 2
					}
					for l := int64(0); l < lay.DataBlocks(); l++ {
						p := lay.Parity(l)
						if p.Block < slot*a || p.Block >= (slot+1)*a {
							t.Fatalf("Parity(%d) at block %d outside parity area [%d,%d)", l, p.Block, slot*a, (slot+1)*a)
						}
						// Data never lands in the parity slot of its disk.
						home := lay.Map(l)
						if home.Block >= slot*a && home.Block < (slot+1)*a {
							t.Fatalf("data block %d inside parity area", l)
						}
					}
				})
			}
		}
	}
}

// TestParityStripingContiguity: parity striping writes data sequentially
// on each disk — physical order matches logical order except for the
// skipped parity area.
func TestParityStripingContiguity(t *testing.T) {
	lay := NewParityStriping(3, 64, MiddlePlacement, 0)
	perDisk := int64(3) * lay.areaBlocks()
	for l := int64(0); l < lay.DataBlocks()-1; l++ {
		if (l+1)%perDisk == 0 {
			continue // next logical disk
		}
		a, b := lay.Map(l), lay.Map(l+1)
		if a.Disk != b.Disk {
			t.Fatalf("blocks %d,%d on different disks %d,%d", l, l+1, a.Disk, b.Disk)
		}
		if b.Block != a.Block+1 && b.Block != a.Block+1+lay.areaBlocks() {
			t.Fatalf("non-sequential physical blocks %d -> %d at lba %d", a.Block, b.Block, l)
		}
	}
}

// TestFineGrainedParitySpread: with a small parity stripe unit, a single
// hot data area's parity updates spread over many disks, which is the
// point of the section 4.2.1 variant.
func TestFineGrainedParitySpread(t *testing.T) {
	const n, bpd = 5, 1200
	classic := NewParityStriping(n, bpd, MiddlePlacement, 0)
	fine := NewParityStriping(n, bpd, MiddlePlacement, 8)

	countDisks := func(lay ParityLayout) int {
		// One data area on disk 0: logical blocks [0, areaBlocks).
		seen := make(map[int]bool)
		ps := lay.(*ParityStriping)
		for l := int64(0); l < ps.areaBlocks(); l++ {
			seen[lay.Parity(l).Disk] = true
		}
		return len(seen)
	}
	if c := countDisks(classic); c != 1 {
		t.Errorf("classic parity striping: one area's parity on %d disks, want 1", c)
	}
	if f := countDisks(fine); f != n {
		t.Errorf("fine-grained parity striping: one area's parity on %d disks, want %d", f, n)
	}
}

// TestLayoutsOutOfRange verifies the panic contract.
func TestLayoutsOutOfRange(t *testing.T) {
	lays := []DataLayout{
		NewBase(2, 16),
		NewMirror(2, 16),
		NewRAID5(2, 16, 1),
		NewRAID4(2, 16, 1),
		NewParityStriping(2, 18, MiddlePlacement, 0),
	}
	for _, lay := range lays {
		lay := lay
		for _, l := range []int64{-1, lay.DataBlocks()} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%T.Map(%d): expected panic", lay, l)
					}
				}()
				lay.Map(l)
			}()
		}
	}
}

// TestQuickRAID5Roundtrip is a property test: for arbitrary (n, su, lba)
// the stripe-membership relation is symmetric.
func TestQuickRAID5Roundtrip(t *testing.T) {
	f := func(nRaw, suRaw uint8, lbaRaw uint32) bool {
		n := 2 + int(nRaw%9)
		su := 1 + int(suRaw%8)
		lay := NewRAID5(n, 480, su)
		lba := int64(lbaRaw) % lay.DataBlocks()
		for _, m := range lay.StripeMembers(nil, lba) {
			found := false
			for _, mm := range lay.StripeMembers(nil, m) {
				if mm == lba {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickParityStripingMembership: same symmetry property for parity
// striping including the fine-grained variant.
func TestQuickParityStripingMembership(t *testing.T) {
	f := func(nRaw uint8, unitRaw uint8, lbaRaw uint32) bool {
		n := 2 + int(nRaw%9)
		unit := int64(unitRaw%16) * 4 // 0 = classic
		lay := NewParityStriping(n, 1320, MiddlePlacement, unit)
		lba := int64(lbaRaw) % lay.DataBlocks()
		p := lay.Parity(lba)
		for _, m := range lay.StripeMembers(nil, lba) {
			if lay.Parity(m) != p {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestStripeMembersAppends: StripeMembers appends after whatever dst
// already holds, and filling a reused buffer allocates nothing.
func TestStripeMembersAppends(t *testing.T) {
	for _, lay := range []ParityLayout{
		NewRAID5(4, 480, 3),
		NewRAID4(4, 480, 3),
		NewParityStriping(4, 1320, MiddlePlacement, 0),
		NewParityStriping(4, 1320, MiddlePlacement, 8),
	} {
		const l = 101
		fresh := lay.StripeMembers(nil, l)
		got := lay.StripeMembers([]int64{-7}, l)
		if got[0] != -7 || !slices.Equal(got[1:], fresh) {
			t.Errorf("%T: StripeMembers after a prefix = %v, want [-7] + %v", lay, got, fresh)
		}
		buf := make([]int64, 0, lay.StripeWidth())
		if n := testing.AllocsPerRun(100, func() { buf = lay.StripeMembers(buf[:0], l) }); n != 0 {
			t.Errorf("%T: StripeMembers into a reused buffer allocates %.0f, want 0", lay, n)
		}
	}
}
