package layout

import "fmt"

// Placement selects where the parity area sits on each disk of a Parity
// Striping array (section 4.2.3 of the paper).
type Placement int

// Parity area placements.
const (
	// MiddlePlacement puts the parity area on the center cylinders, the
	// placement Gray et al. recommend for write-heavy loads.
	MiddlePlacement Placement = iota
	// EndPlacement puts the parity area on the last cylinders, keeping
	// data areas contiguous — better when reads dominate and N is small.
	EndPlacement
)

func (p Placement) String() string {
	if p == EndPlacement {
		return "end"
	}
	return "middle"
}

// ParityStriping implements Gray et al.'s organization (Figure 3): each of
// the N+1 disks is divided into N+1 areas of A blocks; one area per disk
// holds parity and the rest hold data written contiguously (no
// interleaving). Data area areaIdx of disk d belongs to parity group
// g = (d + 1 + areaIdx) mod (N+1), whose parity lives in the parity area
// of disk g — so every group's N data areas sit on N distinct disks, none
// of them disk g.
//
// ParityStripeUnit enables the fine-grained variant the paper sketches in
// section 4.2.1: area membership rotates every ParityStripeUnit blocks
// (group g = (d + 1 + ((areaIdx + off/unit) mod N)) mod (N+1)), so a hot
// data area spreads its parity-update load over all other disks instead
// of hammering a single parity disk, while data addresses — and therefore
// seek affinity — are untouched. A unit >= A (the default) reduces to
// classic parity striping.
type ParityStriping struct {
	n         int   // data-disk equivalents; array has n+1 drives
	area      int64 // A: blocks per area
	bpd       int64
	placement Placement
	pUnit     int64 // parity striping sub-unit, blocks
}

// NewParityStriping builds a parity striping layout over n+1 disks of bpd
// blocks. parityStripeUnit <= 0 selects the classic (whole-area) variant.
func NewParityStriping(n int, bpd int64, placement Placement, parityStripeUnit int64) *ParityStriping {
	if n < 2 {
		panic("layout: parity striping needs at least 2 data disks")
	}
	if bpd < int64(n+1) {
		panic(fmt.Sprintf("layout: %d blocks cannot hold %d areas", bpd, n+1))
	}
	area := bpd / int64(n+1)
	if parityStripeUnit <= 0 || parityStripeUnit > area {
		parityStripeUnit = area
	}
	return &ParityStriping{n: n, area: area, bpd: bpd, placement: placement, pUnit: parityStripeUnit}
}

// Disks implements DataLayout.
func (ps *ParityStriping) Disks() int { return ps.n + 1 }

// DataBlocks implements DataLayout.
func (ps *ParityStriping) DataBlocks() int64 {
	return int64(ps.n+1) * int64(ps.n) * ps.area
}

// StripeWidth implements ParityLayout.
func (ps *ParityStriping) StripeWidth() int { return ps.n }

// areaBlocks returns A, the size of each area in blocks.
func (ps *ParityStriping) areaBlocks() int64 { return ps.area }

// paritySlot returns which of the N+1 area slots on a disk holds parity.
func (ps *ParityStriping) paritySlot() int64 {
	if ps.placement == EndPlacement {
		return int64(ps.n)
	}
	return int64(ps.n+1) / 2
}

// decompose splits l into (disk, data area index, offset within area).
func (ps *ParityStriping) decompose(l int64) (d, areaIdx, off int64) {
	perDisk := int64(ps.n) * ps.area
	d = l / perDisk
	o := l % perDisk
	return d, o / ps.area, o % ps.area
}

// group returns the parity group (== parity disk) of a data block.
func (ps *ParityStriping) group(d, areaIdx, off int64) int64 {
	j := off / ps.pUnit
	return (d + 1 + (areaIdx+j)%int64(ps.n)) % int64(ps.n+1)
}

// Map implements DataLayout: data fills the non-parity area slots of each
// disk in order, so logical addresses on one disk are physically
// contiguous except for the skipped parity area.
func (ps *ParityStriping) Map(l int64) Loc {
	checkRange(l, ps.DataBlocks())
	d, areaIdx, off := ps.decompose(l)
	slot := areaIdx
	if slot >= ps.paritySlot() {
		slot++
	}
	return Loc{Disk: int(d), Block: slot*ps.area + off}
}

// Parity implements ParityLayout.
func (ps *ParityStriping) Parity(l int64) Loc {
	checkRange(l, ps.DataBlocks())
	d, areaIdx, off := ps.decompose(l)
	g := ps.group(d, areaIdx, off)
	return Loc{Disk: int(g), Block: ps.paritySlot()*ps.area + off}
}

// StripeMembers implements ParityLayout: the blocks at the same area
// offset in the group's member areas, one per disk other than the parity
// holder.
func (ps *ParityStriping) StripeMembers(dst []int64, l int64) []int64 {
	checkRange(l, ps.DataBlocks())
	d, areaIdx, off := ps.decompose(l)
	g := ps.group(d, areaIdx, off)
	j := off / ps.pUnit
	perDisk := int64(ps.n) * ps.area
	for dd := int64(0); dd <= int64(ps.n); dd++ {
		if dd == g {
			continue
		}
		// Solve (dd + 1 + (ai+j) mod N) ≡ g (mod N+1) for ai.
		k := (g - dd - 1) % int64(ps.n+1)
		if k < 0 {
			k += int64(ps.n + 1)
		}
		ai := (k - j) % int64(ps.n)
		if ai < 0 {
			ai += int64(ps.n)
		}
		dst = append(dst, dd*perDisk+ai*ps.area+off)
	}
	return dst
}

var _ ParityLayout = (*ParityStriping)(nil)
