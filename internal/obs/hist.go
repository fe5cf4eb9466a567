package obs

import (
	"math"

	"raidsim/internal/logbin"
)

// Histogram is a log-bucketed latency histogram: logbin's geometric bins
// over [histLo, ∞) milliseconds growing by histGrowth. Quantiles are read
// back as the geometric midpoint of the target bin, so the relative error
// of any quantile is bounded by half a bin: |est/true - 1| <= sqrt(g) - 1
// (about 3.9% at the 1.08 growth used here). The exact max and sum are
// tracked separately, so Max() and Mean() carry no binning error.
//
// A copied Histogram shares its counts with the original (see
// logbin.Counts); merge into an empty one for an independent copy.
type Histogram struct {
	c   logbin.Counts
	n   int64
	sum float64
	max float64
}

const (
	histLo     = 1e-3 // smallest resolved latency, ms
	histGrowth = 1.08 // bin growth ratio; 256 bins reach ~3e5 ms
)

// histTable reads each bin back as its geometric midpoint.
var histTable = logbin.Build(histLo, histGrowth, func(b int) float64 {
	return histLo * math.Pow(histGrowth, float64(b)+0.5)
})

// Add records one latency sample in milliseconds.
func (h *Histogram) Add(ms float64) { h.add(ms) }

// add is Add, returning the sample's bin.
func (h *Histogram) add(ms float64) int {
	b := histTable.Bin(ms)
	h.c.Add(b, 1)
	h.n++
	h.sum += ms
	if ms > h.max {
		h.max = ms
	}
	return b
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
	if b := h.c.Rank(target); b >= 0 {
		return min(histTable.Rep[b], h.max)
	}
	return h.max
}

// Merge folds o into h.
func (h *Histogram) Merge(o *Histogram) {
	h.c.Merge(&o.c)
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
	for t.below+t.h.c.Count(t.cur) < t.rank {
		t.below += t.h.c.Count(t.cur)
		t.cur++
	}
	for t.below >= t.rank {
		t.cur--
		t.below -= t.h.c.Count(t.cur)
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
	return min(histTable.Rep[t.cur], t.h.max)
}
