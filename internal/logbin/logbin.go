// Package logbin builds the lookup tables that find a sample's bin in a
// geometric histogram without a logarithm.
//
// A geometric histogram defines a sample's bin by a formula such as
// int(log(x/lo) / log(growth)), clamped to the last bin. Evaluating the
// logarithm on every sample is the dominant cost of adding to such a
// histogram, so the packages that keep one (stats, obs) look the bin up
// instead, in tables built once from the defining formula itself and
// therefore bit-exact with it:
//
//   - Thresh[b] is the smallest float64 whose defined bin is b
//     (1 <= b < bins), found by bisecting on the float bits.
//   - Guide has one entry per guide cell — every float64 sharing a sign,
//     exponent and top GuideBits mantissa bits — from the cell of lo to
//     the cell of Thresh[bins-1]: the bin of the cell's smallest value.
//     A cell spans a ratio below 1+2^-GuideBits, far less than any
//     growth ratio in use, so it holds at most one bin edge, and one
//     compare against Thresh finishes the lookup.
//
// The lookup itself stays in each package, over fixed-size arrays, so
// its bounds checks fold away:
//
//	if x <= lo { return 0 }
//	if x >= thresh[bins-1] { return bins-1 }
//	b := int(guide[logbin.Cell(x)-first])
//	if x >= thresh[b+1] { b++ }
//	return b
package logbin

import "math"

// GuideBits is the number of mantissa bits a guide cell keeps.
const GuideBits = 8

// Cell returns the guide cell of a positive float64.
func Cell(x float64) uint64 { return math.Float64bits(x) >> (52 - GuideBits) }

// Table is the lookup for one histogram definition.
type Table struct {
	Thresh []float64 // Thresh[b]: the smallest float64 in bin b; Thresh[0] is unused
	Guide  []uint8   // bin of the smallest float64 of guide cell First+k
	First  uint64    // Cell(lo)
}

// Build bisects the bin edges of a histogram of bins bins (at most 256)
// whose defining formula is bin: bin(x) is 0 for every x <= lo,
// nondecreasing in x, and reaches bins-1 at or below hi.
func Build(lo, hi float64, bins int, bin func(float64) int) Table {
	if bins < 2 || bins > 256 {
		panic("logbin: bin count outside [2, 256]")
	}
	t := Table{Thresh: make([]float64, bins), First: Cell(lo)}
	// Positive floats order as their bit patterns do, so bisecting the
	// bits finds the first float of each bin.
	for b := 1; b < bins; b++ {
		l, h := math.Float64bits(lo), math.Float64bits(hi) // bin(l) < b <= bin(h)
		for h-l > 1 {
			mid := l + (h-l)/2
			if bin(math.Float64frombits(mid)) >= b {
				h = mid
			} else {
				l = mid
			}
		}
		t.Thresh[b] = math.Float64frombits(h)
	}
	last := Cell(t.Thresh[bins-1])
	t.Guide = make([]uint8, last-t.First+1)
	b := 0
	for k := range t.Guide {
		low := math.Float64frombits((t.First + uint64(k)) << (52 - GuideBits))
		for b+1 < bins && t.Thresh[b+1] <= low {
			b++
		}
		t.Guide[k] = uint8(b)
	}
	return t
}
