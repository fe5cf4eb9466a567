// Package stats provides the streaming statistics the simulator collects:
// response-time summaries (mean, variance, quantiles via a log-bin
// histogram that keeps only its occupied bins), time-weighted
// utilization, and per-disk counters.
package stats

import (
	"fmt"
	"math"

	"raidsim/internal/logbin"
)

// Summary accumulates scalar samples with Welford's online algorithm plus
// a log-scale histogram good enough for the quantiles the paper reports.
//
// The histogram holds only the range of bins its samples occupy, so a
// copied Summary shares its counts with the original: adding to one
// changes the other's quantiles. Merge into an empty Summary for an
// independent copy.
type Summary struct {
	n        int64
	mean     float64
	m2       float64
	min, max float64
	hist     histogram
}

// Add records one sample.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
	s.hist.add(x)
}

// N returns the sample count.
func (s *Summary) N() int64 { return s.n }

// Mean returns the sample mean, or 0 with no samples.
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.mean
}

// Var returns the unbiased sample variance.
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the sample standard deviation.
func (s *Summary) Std() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest sample, or 0 with no samples.
func (s *Summary) Min() float64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest sample, or 0 with no samples.
func (s *Summary) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// Quantile returns an approximation of the q-quantile (0 <= q <= 1) from
// the histogram. Accuracy is within one bin width (~7% relative).
func (s *Summary) Quantile(q float64) float64 {
	return s.hist.quantile(q, s.min, s.max)
}

// Merge folds other into s. Use it to aggregate per-array summaries.
// Merged into an empty s, o is copied, counts and all.
func (s *Summary) Merge(o *Summary) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *o
		s.hist.counts = append([]int64(nil), o.hist.counts...)
		return
	}
	n1, n2 := float64(s.n), float64(o.n)
	d := o.mean - s.mean
	tot := n1 + n2
	s.m2 += o.m2 + d*d*n1*n2/tot
	s.mean += d * n2 / tot
	s.n += o.n
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.hist.merge(&o.hist)
}

func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f std=%.3f min=%.3f max=%.3f",
		s.n, s.Mean(), s.Std(), s.Min(), s.Max())
}

// histogram is a geometric-bin histogram covering [lo, inf) with bins
// growing by a fixed ratio. Values are expected to be positive
// response times in milliseconds-ish magnitude; bin 0 also absorbs
// zero/negative values.
//
// counts covers only the occupied range of bins, plus a margin:
// counts[i] is bin lo+i. It starts empty and grows when a sample or a
// merge lands outside it, so a summary of a few thousand response times
// keeps a few dozen bins, not nBins.
type histogram struct {
	counts []int64
	lo     int
}

const (
	nBins    = 256
	histLo   = 1e-3 // smallest resolved value
	histStep = 1.07 // bin growth ratio; 256 bins reach ~3.3e4 * histLo

	// binPad is the margin, in bins, a histogram grows past a sample
	// that lands outside its range (a factor of 3 in value), so the next
	// few such samples do not each reallocate the counts.
	binPad = 16
)

// A sample's bin is defined as int(log(x/histLo) / log(histStep)),
// clamped to the last bin. Add runs on every response, so binOf finds
// that bin without a logarithm, in logbin lookup tables built once from
// the definition itself and therefore bit-exact with it.
var (
	binThresh  [nBins]float64
	binGuide   []uint8
	guideFirst uint64 // the guide cell of histLo
)

func init() {
	logStep := math.Log(histStep)
	defined := func(x float64) int {
		if x <= histLo {
			return 0
		}
		return min(int(math.Log(x/histLo)/logStep), nBins-1)
	}
	t := logbin.Build(histLo, histLo*math.Pow(histStep, nBins+1), nBins, defined)
	copy(binThresh[:], t.Thresh)
	binGuide, guideFirst = t.Guide, t.First
}

func binOf(x float64) int {
	if x <= histLo {
		return 0
	}
	if x >= binThresh[nBins-1] {
		return nBins - 1
	}
	b := int(binGuide[logbin.Cell(x)-guideFirst])
	if x >= binThresh[b+1] {
		b++
	}
	return b
}

func binLow(b int) float64 {
	return histLo * math.Pow(histStep, float64(b))
}

func (h *histogram) add(x float64) {
	b := binOf(x)
	if i := uint(b - h.lo); i < uint(len(h.counts)) {
		h.counts[i]++
		return
	}
	h.cover(b, b+1)
	h.counts[b-h.lo]++
}

// cover widens counts, unless they already span bins [lo, hi), to span
// them and the current range, with a margin of binPad bins each way.
func (h *histogram) cover(lo, hi int) {
	if len(h.counts) > 0 && lo >= h.lo && hi <= h.lo+len(h.counts) {
		return
	}
	lo, hi = max(lo-binPad, 0), min(hi+binPad, nBins)
	if len(h.counts) == 0 {
		h.counts, h.lo = make([]int64, hi-lo), lo
		return
	}
	lo, hi = min(lo, h.lo), max(hi, h.lo+len(h.counts))
	c := make([]int64, hi-lo)
	copy(c[h.lo-lo:], h.counts)
	h.counts, h.lo = c, lo
}

func (h *histogram) merge(o *histogram) {
	if len(o.counts) == 0 {
		return
	}
	h.cover(o.lo, o.lo+len(o.counts))
	off := o.lo - h.lo
	for i, c := range o.counts {
		h.counts[off+i] += c
	}
}

func (h *histogram) quantile(q float64, min, max float64) float64 {
	var total int64
	for _, c := range h.counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	if min > max {
		// Degenerate bounds (e.g. summaries assembled from partial state,
		// or merged in an order that never saw a real sample range): treat
		// the observed range as [max, min] so the result stays inside it
		// and remains monotone in q.
		min, max = max, min
	}
	if q <= 0 {
		return min
	}
	if q >= 1 {
		return max
	}
	target := int64(math.Ceil(q * float64(total)))
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			// Midpoint of the bin, clamped to observed range.
			v := binLow(h.lo+i) * math.Sqrt(histStep)
			if v < min {
				v = min
			}
			if v > max {
				v = max
			}
			return v
		}
	}
	return max
}
