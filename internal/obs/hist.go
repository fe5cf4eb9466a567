package obs

import (
	"math"

	"raidsim/internal/logbin"
)

// Histogram is a log-bucketed latency histogram: geometric bins over
// [histLo, ∞) milliseconds with a fixed growth ratio. Quantiles are read
// back as the geometric midpoint of the target bin, so the relative error
// of any quantile is bounded by half a bin: |est/true - 1| <= sqrt(g) - 1
// (about 3.9% at the 1.08 growth used here). The exact max and sum are
// tracked separately, so Max() and Mean() carry no binning error.
//
// counts covers only the occupied range of bins, plus a margin:
// counts[i] is bin lo+i. It starts empty and grows when a sample or a
// Merge lands outside it, so a window of a few dozen samples keeps a few
// dozen bins, not 256. A copied Histogram shares its counts with the
// original; merge into an empty one for an independent copy.
type Histogram struct {
	counts []int64
	lo     int
	n      int64
	sum    float64
	max    float64
}

const (
	histBins   = 256
	histLo     = 1e-3 // smallest resolved latency, ms
	histGrowth = 1.08 // bin growth ratio; 256 bins reach ~3e5 ms

	// histPad is the margin, in bins, a Histogram grows past a sample
	// that lands outside its range (a factor of 3.4 in latency), so the
	// next few such samples do not each reallocate the counts.
	histPad = 16
)

// histBinLog is the histogram's defining bin formula. Add does not call
// it: histBin looks the same bin up in tables built from it at init.
func histBinLog(x float64) int {
	if x <= histLo {
		return 0
	}
	b := int(math.Log(x/histLo) / histLogGrowth)
	if b >= histBins {
		b = histBins - 1
	}
	return b
}

var (
	histLogGrowth = math.Log(histGrowth)

	// The logbin lookup tables of histBinLog.
	histThresh     [histBins]float64
	histGuide      []uint8
	histGuideFirst uint64

	// binMids[b] is the geometric midpoint of bin b, the value a
	// quantile reads back from it.
	binMids [histBins]float64
)

func init() {
	t := logbin.Build(histLo, histLo*math.Pow(histGrowth, histBins+1), histBins, histBinLog)
	copy(histThresh[:], t.Thresh)
	histGuide, histGuideFirst = t.Guide, t.First
	for b := range binMids {
		binMids[b] = histLo * math.Pow(histGrowth, float64(b)+0.5)
	}
}

// histBin returns histBinLog(x) without a logarithm.
func histBin(x float64) int {
	if x <= histLo {
		return 0
	}
	if x >= histThresh[histBins-1] {
		return histBins - 1
	}
	b := int(histGuide[logbin.Cell(x)-histGuideFirst])
	if x >= histThresh[b+1] {
		b++
	}
	return b
}

// Add records one latency sample in milliseconds.
func (h *Histogram) Add(ms float64) { h.add(ms) }

// add is Add, returning the sample's bin.
func (h *Histogram) add(ms float64) int {
	b := histBin(ms)
	if i := uint(b - h.lo); i < uint(len(h.counts)) {
		h.counts[i]++
	} else {
		h.cover(b, b+1)
		h.counts[b-h.lo]++
	}
	h.n++
	h.sum += ms
	if ms > h.max {
		h.max = ms
	}
	return b
}

// cover widens counts, unless they already span bins [lo, hi), to span
// them and the current range, with a margin of histPad bins each way.
func (h *Histogram) cover(lo, hi int) {
	if len(h.counts) > 0 && lo >= h.lo && hi <= h.lo+len(h.counts) {
		return
	}
	lo, hi = max(lo-histPad, 0), min(hi+histPad, histBins)
	if len(h.counts) == 0 {
		h.counts, h.lo = make([]int64, hi-lo), lo
		return
	}
	lo, hi = min(lo, h.lo), max(hi, h.lo+len(h.counts))
	c := make([]int64, hi-lo)
	copy(c[h.lo-lo:], h.counts)
	h.counts, h.lo = c, lo
}

// count returns the samples in bin b (0 outside the occupied range).
func (h *Histogram) count(b int) int64 {
	if i := uint(b - h.lo); i < uint(len(h.counts)) {
		return h.counts[i]
	}
	return 0
}

// N returns the sample count.
func (h *Histogram) N() int64 { return h.n }

// Mean returns the exact sample mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Max returns the exact largest sample.
func (h *Histogram) Max() float64 { return h.max }

// Quantile returns the q-quantile (0 < q <= 1) as the geometric midpoint
// of the bin holding the target rank, clamped to the observed max.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(h.n)))
	if target < 1 {
		target = 1
	}
	if target >= h.n {
		return h.max
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			return min(binMids[h.lo+i], h.max)
		}
	}
	return h.max
}

// Merge folds o into h.
func (h *Histogram) Merge(o *Histogram) {
	if len(o.counts) > 0 {
		h.cover(o.lo, o.lo+len(o.counts))
		off := o.lo - h.lo
		for i, c := range o.counts {
			h.counts[off+i] += c
		}
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// TrackedQuantile is a Histogram that keeps one fixed quantile current
// as samples arrive, so reading it is O(1) where Histogram.Quantile
// scans the bins. It keeps a cursor on the bin holding the target rank,
// the smallest bin whose cumulative count reaches it, and the count of
// samples below that bin. The target rank grows by at most one per
// sample, so each Add moves the cursor across at most one nonempty bin,
// plus any empty bins in between. Value equals Histogram.Quantile(q) on
// the same samples, bit for bit.
type TrackedQuantile struct {
	h     Histogram
	q     float64
	rank  int64 // the target rank, as Histogram.Quantile computes it
	cur   int   // the bin holding the target rank (0 with no samples)
	below int64 // samples in bins below cur
}

// NewTrackedQuantile returns an empty histogram tracking quantile q
// (0 < q <= 1).
func NewTrackedQuantile(q float64) TrackedQuantile { return TrackedQuantile{q: q} }

// Add records one latency sample in milliseconds.
func (t *TrackedQuantile) Add(ms float64) {
	if t.h.add(ms) < t.cur {
		t.below++
	}
	t.rank = max(int64(math.Ceil(t.q*float64(t.h.n))), 1)
	// Invariant: below < rank <= below + count(cur).
	for t.below+t.h.count(t.cur) < t.rank {
		t.below += t.h.count(t.cur)
		t.cur++
	}
	for t.below >= t.rank {
		t.cur--
		t.below -= t.h.count(t.cur)
	}
}

// N returns the sample count.
func (t *TrackedQuantile) N() int64 { return t.h.n }

// Value returns the tracked quantile as Histogram.Quantile(q) would.
func (t *TrackedQuantile) Value() float64 {
	if t.h.n == 0 {
		return 0
	}
	if t.rank >= t.h.n {
		return t.h.max
	}
	return min(binMids[t.cur], t.h.max)
}
