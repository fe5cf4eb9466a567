// Package logbin is the geometric histogram the simulator's latency
// summaries share (stats.Summary, obs.Histogram): a Table that finds a
// sample's bin without a logarithm, and Counts that hold only the bins a
// histogram's samples occupy. The owners keep their own moments beside
// the counts and read each quantile back as the Table's representative
// of the bin holding the target rank.
//
// A Table's bins are defined by int(log(x/lo) / log(growth)), clamped to
// [0, Bins-1]. Evaluating the logarithm on every sample is the dominant
// cost of adding to such a histogram, so Bin looks the bin up instead, in
// tables built once from the defining formula itself and therefore
// bit-exact with it:
//
//   - thresh[b] is the smallest float64 whose defined bin is b
//     (1 <= b < Bins), found by bisecting on the float bits.
//   - guide has one entry per guide cell — every float64 sharing a sign,
//     exponent and top guideBits mantissa bits — from the cell of lo to
//     the cell of thresh[Bins-1]: the bin of the cell's smallest value.
//     A cell spans a ratio below 1+2^-guideBits, far less than any
//     growth ratio in use, so it holds at most one bin edge, and one
//     compare against thresh finishes the lookup.
//
// A representative inside its bin bounds a quantile's relative error by
// the bin's spread around it. The geometric midpoint lo·growth^(b+0.5),
// clamped to the observed range, gives |est/true - 1| <= sqrt(growth) - 1
// for samples inside (lo, thresh[Bins-1]).
package logbin

import "math"

const (
	// Bins is the number of bins of every Table.
	Bins = 256

	// guideBits is the number of mantissa bits a guide cell keeps.
	guideBits = 8

	// pad is the margin, in bins, Counts grow past a bin outside their
	// range (a factor of 3 to 3.4 in value at the growth ratios in use),
	// so the next few such samples do not each reallocate them.
	pad = 16
)

// cell returns the guide cell of a positive float64.
func cell(x float64) uint64 { return math.Float64bits(x) >> (52 - guideBits) }

// Table is the bin lookup for one histogram definition. Build it once,
// into a package-level variable: Bin inlines into its callers and reads
// the table, thresholds in a fixed-size array, at a fixed address.
type Table struct {
	lo, logGrowth float64
	thresh        [Bins]float64 // thresh[b]: the smallest float64 in bin b; thresh[0] is unused
	guide         []uint8       // bin of the smallest float64 of guide cell first+k
	first         uint64        // cell(lo)

	// Rep[b] is the value a quantile reads back from bin b.
	Rep [Bins]float64
}

// Build returns the table of the bins over [lo, ∞) that grow by growth,
// with rep(b) as bin b's representative.
func Build(lo, growth float64, rep func(b int) float64) Table {
	t := Table{lo: lo, logGrowth: math.Log(growth), first: cell(lo)}
	hi := lo * math.Pow(growth, Bins+1) // past the first float of the last bin
	// Positive floats order as their bit patterns do, so bisecting the
	// bits finds the first float of each bin.
	for b := 1; b < Bins; b++ {
		l, h := math.Float64bits(lo), math.Float64bits(hi) // formula(l) < b <= formula(h)
		for h-l > 1 {
			mid := l + (h-l)/2
			if t.formula(math.Float64frombits(mid)) >= b {
				h = mid
			} else {
				l = mid
			}
		}
		t.thresh[b] = math.Float64frombits(h)
	}
	t.guide = make([]uint8, cell(t.thresh[Bins-1])-t.first+1)
	b := 0
	for k := range t.guide {
		low := math.Float64frombits((t.first + uint64(k)) << (52 - guideBits))
		for b+1 < Bins && t.thresh[b+1] <= low {
			b++
		}
		t.guide[k] = uint8(b)
	}
	for b := range t.Rep {
		t.Rep[b] = rep(b)
	}
	return t
}

// formula is the table's defining bin formula. It is defined where x/lo
// is finite; beyond that (x above ~1.8e305 at lo = 1e-3) the formula
// overflows, and Bin returns the last bin.
func (t *Table) formula(x float64) int {
	if x <= t.lo {
		return 0
	}
	return min(int(math.Log(x/t.lo)/t.logGrowth), Bins-1)
}

// Bin returns x's bin, as the defining formula gives it, without a
// logarithm. Zero, negative and sub-lo samples fall in bin 0.
func (t *Table) Bin(x float64) int {
	if x <= t.lo {
		return 0
	}
	if x >= t.thresh[Bins-1] {
		return Bins - 1
	}
	b := int(t.guide[cell(x)-t.first])
	if x >= t.thresh[b+1] {
		b++
	}
	return b
}

// Counts are a histogram's per-bin sample counts, held only over the
// occupied range of bins plus a margin: c[i] counts bin lo+i. They start
// empty and grow when a sample or a merge lands outside them, so a
// histogram of a few thousand response times keeps a few dozen bins, not
// Bins.
//
// A copied Counts shares its bins with the original: adding to one
// changes the other. Merge into an empty Counts for an independent copy.
type Counts struct {
	c  []int64
	lo int
}

// Add counts n more samples in bin b.
func (h *Counts) Add(b int, n int64) {
	if uint(b-h.lo) >= uint(len(h.c)) {
		h.Cover(b, b+1)
	}
	h.c[b-h.lo] += n
}

// Cover widens the counts, unless they already span bins [lo, hi), to
// span them and the current range, with a margin of pad bins each way.
func (h *Counts) Cover(lo, hi int) {
	if len(h.c) > 0 && lo >= h.lo && hi <= h.lo+len(h.c) {
		return
	}
	lo, hi = max(lo-pad, 0), min(hi+pad, Bins)
	if len(h.c) == 0 {
		h.c, h.lo = make([]int64, hi-lo), lo
		return
	}
	lo, hi = min(lo, h.lo), max(hi, h.lo+len(h.c))
	c := make([]int64, hi-lo)
	copy(c[h.lo-lo:], h.c)
	h.c, h.lo = c, lo
}

// Merge adds o's counts to h's. o may be h. Merged into empty counts, o's
// range is copied as it is, without a margin: most copies are only read.
func (h *Counts) Merge(o *Counts) {
	if len(o.c) == 0 {
		return
	}
	if len(h.c) == 0 {
		h.c, h.lo = append([]int64(nil), o.c...), o.lo
		return
	}
	h.Cover(o.lo, o.lo+len(o.c))
	off := o.lo - h.lo
	for i, c := range o.c {
		h.c[off+i] += c
	}
}

// Count returns the samples in bin b (0 outside the occupied range).
func (h *Counts) Count(b int) int64 {
	if i := uint(b - h.lo); i < uint(len(h.c)) {
		return h.c[i]
	}
	return 0
}

// Total returns the samples in every bin.
func (h *Counts) Total() int64 {
	var n int64
	for _, c := range h.c {
		n += c
	}
	return n
}

// Occupied returns the range the counts span: counts[i] is bin lo+i.
// The caller must not modify counts.
func (h *Counts) Occupied() (lo int, counts []int64) { return h.lo, h.c }

// Rank returns the first bin whose cumulative count reaches r, or -1 if
// the total is below r.
func (h *Counts) Rank(r int64) int {
	var cum int64
	for i, c := range h.c {
		cum += c
		if cum >= r {
			return h.lo + i
		}
	}
	return -1
}
