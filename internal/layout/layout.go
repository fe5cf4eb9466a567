// Package layout maps an array's logical block space onto physical disks
// for each organization the paper compares: Base (independent disks),
// Mirror, RAID5 (block-interleaved, rotated parity), RAID4 (dedicated
// parity disk), and Parity Striping (contiguous data, per-disk parity
// areas), including the fine-grained parity-striping variant the paper
// proposes as future work.
//
// All layouts address one array. A layout built with n "logical" disks of
// bpd blocks each exposes DataBlocks() logical blocks (possibly slightly
// fewer than n*bpd when striping or area division doesn't divide evenly)
// and Disks() physical drives.
package layout

import "fmt"

// Loc is a physical block address within an array.
type Loc struct {
	Disk  int   // physical disk index within the array
	Block int64 // block number on that disk
}

// DataLayout maps logical data blocks to physical locations.
type DataLayout interface {
	// Disks returns the number of physical disks in the array.
	Disks() int
	// DataBlocks returns the number of addressable logical blocks.
	DataBlocks() int64
	// Map returns the physical home of logical block l. It panics if l
	// is out of [0, DataBlocks()).
	Map(l int64) Loc
}

// ParityLayout is a DataLayout with redundancy: each logical block has a
// parity block, shared with the other members of its stripe.
type ParityLayout interface {
	DataLayout
	// Parity returns the location of the parity block protecting l.
	Parity(l int64) Loc
	// StripeWidth returns the number of data blocks per parity block.
	StripeWidth() int
	// StripeMembers appends to dst the logical blocks (including l) whose
	// XOR is stored at Parity(l), and returns the extended slice. Members
	// whose logical address falls outside [0, DataBlocks()) are omitted.
	// Passing a reused buffer (buf[:0]) makes the call allocation-free.
	StripeMembers(dst []int64, l int64) []int64
}

// MirrorLayout is a DataLayout where every block has a second copy.
type MirrorLayout interface {
	DataLayout
	// Alt returns the location of the mirror copy of l.
	Alt(l int64) Loc
}

func checkRange(l, n int64) {
	if l < 0 || l >= n {
		panic(fmt.Sprintf("layout: logical block %d outside [0,%d)", l, n))
	}
}

// Base is n independent disks with no redundancy.
type Base struct {
	n   int
	bpd int64
}

// NewBase returns a Base layout over n disks of bpd blocks.
func NewBase(n int, bpd int64) *Base {
	if n <= 0 || bpd <= 0 {
		panic("layout: Base needs positive disks and blocks")
	}
	return &Base{n: n, bpd: bpd}
}

// Disks implements DataLayout.
func (b *Base) Disks() int { return b.n }

// DataBlocks implements DataLayout.
func (b *Base) DataBlocks() int64 { return int64(b.n) * b.bpd }

// Map implements DataLayout.
func (b *Base) Map(l int64) Loc {
	checkRange(l, b.DataBlocks())
	return Loc{Disk: int(l / b.bpd), Block: l % b.bpd}
}

// Mirror is n logical disks, each duplicated onto a pair of physical
// disks (2n drives total).
type Mirror struct {
	n   int
	bpd int64
}

// NewMirror returns a Mirror layout over n logical disks of bpd blocks.
func NewMirror(n int, bpd int64) *Mirror {
	if n <= 0 || bpd <= 0 {
		panic("layout: Mirror needs positive disks and blocks")
	}
	return &Mirror{n: n, bpd: bpd}
}

// Disks implements DataLayout.
func (m *Mirror) Disks() int { return 2 * m.n }

// DataBlocks implements DataLayout.
func (m *Mirror) DataBlocks() int64 { return int64(m.n) * m.bpd }

// Map returns the primary copy: logical disk d lives on drives 2d, 2d+1.
func (m *Mirror) Map(l int64) Loc {
	checkRange(l, m.DataBlocks())
	return Loc{Disk: 2 * int(l/m.bpd), Block: l % m.bpd}
}

// Alt returns the secondary copy.
func (m *Mirror) Alt(l int64) Loc {
	p := m.Map(l)
	p.Disk++
	return p
}

var (
	_ DataLayout   = (*Base)(nil)
	_ MirrorLayout = (*Mirror)(nil)
)
