package layout

import "fmt"

// RAID0 interleaves data across n disks in units of su blocks with no
// redundancy — pure striping (Chen et al.'s comparison baseline, cited in
// the paper's related work). It maps like RAID5 without the parity disk.
type RAID0 struct {
	n       int
	su      int64
	stripes int64
}

// NewRAID0 builds a RAID0 layout over n disks of bpd blocks with striping
// unit su.
func NewRAID0(n int, bpd int64, su int) *RAID0 {
	if n < 2 {
		panic("layout: RAID0 needs at least 2 disks")
	}
	if bpd <= 0 || su <= 0 {
		panic("layout: RAID0 needs positive size and striping unit")
	}
	if int64(su) > bpd {
		panic(fmt.Sprintf("layout: striping unit %d exceeds disk size %d", su, bpd))
	}
	return &RAID0{n: n, su: int64(su), stripes: bpd / int64(su)}
}

// Disks implements DataLayout.
func (r *RAID0) Disks() int { return r.n }

// DataBlocks implements DataLayout.
func (r *RAID0) DataBlocks() int64 { return r.stripes * int64(r.n) * r.su }

// Map implements DataLayout.
func (r *RAID0) Map(l int64) Loc {
	checkRange(l, r.DataBlocks())
	u := l / r.su
	off := l % r.su
	stripe := u / int64(r.n)
	return Loc{Disk: int(u % int64(r.n)), Block: stripe*r.su + off}
}

var _ DataLayout = (*RAID0)(nil)
