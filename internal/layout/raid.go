package layout

import "fmt"

// RAID5 interleaves data across n+1 disks in units of su blocks, with the
// parity unit of each stripe rotating over the disks (Figure 1 of the
// paper). A stripe holds n data units plus one parity unit, all at the
// same per-disk offset.
type RAID5 struct {
	n       int   // data disks' worth of capacity
	su      int64 // striping unit, blocks
	stripes int64 // stripes on the array
	bpd     int64
}

// NewRAID5 builds a RAID5 layout with capacity n*bpd (rounded down to
// whole stripes) and striping unit su blocks.
func NewRAID5(n int, bpd int64, su int) *RAID5 {
	if n < 2 {
		panic("layout: RAID5 needs at least 2 data disks")
	}
	if bpd <= 0 || su <= 0 {
		panic("layout: RAID5 needs positive size and striping unit")
	}
	if int64(su) > bpd {
		panic(fmt.Sprintf("layout: striping unit %d exceeds disk size %d", su, bpd))
	}
	return &RAID5{n: n, su: int64(su), stripes: bpd / int64(su), bpd: bpd}
}

// Disks implements DataLayout.
func (r *RAID5) Disks() int { return r.n + 1 }

// DataBlocks implements DataLayout.
func (r *RAID5) DataBlocks() int64 { return r.stripes * int64(r.n) * r.su }

// StripeWidth implements ParityLayout.
func (r *RAID5) StripeWidth() int { return r.n }

// decompose splits l into (stripe, data-unit index within stripe, offset
// within unit).
func (r *RAID5) decompose(l int64) (stripe, unit, off int64) {
	u := l / r.su
	return u / int64(r.n), u % int64(r.n), l % r.su
}

// Map implements DataLayout: within stripe s the parity unit sits on disk
// s mod (n+1) and the n data units fill the remaining disks in order.
func (r *RAID5) Map(l int64) Loc {
	checkRange(l, r.DataBlocks())
	stripe, unit, off := r.decompose(l)
	p := int(stripe % int64(r.n+1))
	d := int(unit)
	if d >= p {
		d++
	}
	return Loc{Disk: d, Block: stripe*r.su + off}
}

// Parity implements ParityLayout.
func (r *RAID5) Parity(l int64) Loc {
	checkRange(l, r.DataBlocks())
	stripe, _, off := r.decompose(l)
	p := int(stripe % int64(r.n+1))
	return Loc{Disk: p, Block: stripe*r.su + off}
}

// StripeMembers implements ParityLayout: the n data blocks at the same
// unit offset in the same stripe.
func (r *RAID5) StripeMembers(dst []int64, l int64) []int64 {
	checkRange(l, r.DataBlocks())
	stripe, _, off := r.decompose(l)
	for i := 0; i < r.n; i++ {
		dst = append(dst, (stripe*int64(r.n)+int64(i))*r.su+off)
	}
	return dst
}

// RAID4 is RAID5 with the parity fixed on the last disk (Figure 2).
type RAID4 struct {
	n       int
	su      int64
	stripes int64
	bpd     int64
}

// NewRAID4 builds a RAID4 layout with capacity n*bpd (rounded down to
// whole stripes) and striping unit su blocks. Disk n is the parity disk.
func NewRAID4(n int, bpd int64, su int) *RAID4 {
	if n < 2 {
		panic("layout: RAID4 needs at least 2 data disks")
	}
	if bpd <= 0 || su <= 0 {
		panic("layout: RAID4 needs positive size and striping unit")
	}
	if int64(su) > bpd {
		panic(fmt.Sprintf("layout: striping unit %d exceeds disk size %d", su, bpd))
	}
	return &RAID4{n: n, su: int64(su), stripes: bpd / int64(su), bpd: bpd}
}

// Disks implements DataLayout.
func (r *RAID4) Disks() int { return r.n + 1 }

// ParityDisk returns the index of the dedicated parity disk.
func (r *RAID4) ParityDisk() int { return r.n }

// DataBlocks implements DataLayout.
func (r *RAID4) DataBlocks() int64 { return r.stripes * int64(r.n) * r.su }

// StripeWidth implements ParityLayout.
func (r *RAID4) StripeWidth() int { return r.n }

func (r *RAID4) decompose(l int64) (stripe, unit, off int64) {
	u := l / r.su
	return u / int64(r.n), u % int64(r.n), l % r.su
}

// Map implements DataLayout.
func (r *RAID4) Map(l int64) Loc {
	checkRange(l, r.DataBlocks())
	stripe, unit, off := r.decompose(l)
	return Loc{Disk: int(unit), Block: stripe*r.su + off}
}

// Parity implements ParityLayout.
func (r *RAID4) Parity(l int64) Loc {
	checkRange(l, r.DataBlocks())
	stripe, _, off := r.decompose(l)
	return Loc{Disk: r.n, Block: stripe*r.su + off}
}

// StripeMembers implements ParityLayout.
func (r *RAID4) StripeMembers(dst []int64, l int64) []int64 {
	checkRange(l, r.DataBlocks())
	stripe, _, off := r.decompose(l)
	for i := 0; i < r.n; i++ {
		dst = append(dst, (stripe*int64(r.n)+int64(i))*r.su+off)
	}
	return dst
}

var (
	_ ParityLayout = (*RAID5)(nil)
	_ ParityLayout = (*RAID4)(nil)
)
