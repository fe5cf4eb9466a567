// Package stats provides the streaming statistics the simulator collects:
// response-time summaries (mean, variance, quantiles via a logbin
// histogram), time-weighted utilization, and per-disk counters.
package stats

import (
	"fmt"
	"math"

	"raidsim/internal/logbin"
)

// Summary accumulates scalar samples with Welford's online algorithm plus
// a logbin histogram good enough for the quantiles the paper reports:
// geometric bins over [histLo, ∞) growing by histStep.
//
// A copied Summary shares its histogram counts with the original (see
// logbin.Counts). Merge into an empty Summary for an independent copy.
type Summary struct {
	n        int64
	mean     float64
	m2       float64
	min, max float64
	hist     logbin.Counts
}

const (
	histLo   = 1e-3 // smallest resolved value
	histStep = 1.07 // bin growth ratio; 256 bins reach ~3.3e4
)

// binTable reads each bin back as its geometric midpoint.
var binTable = logbin.Build(histLo, histStep, func(b int) float64 {
	return histLo * math.Pow(histStep, float64(b)) * math.Sqrt(histStep)
})

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
	s.hist.Add(binTable.Bin(x), 1)
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

// Quantile returns an approximation of the q-quantile (0 <= q <= 1): the
// geometric midpoint of the bin holding the target rank, clamped to
// [Min, Max]. For samples inside the histogram's range the relative
// error is at most half a bin, sqrt(histStep) - 1 (about 3.4%).
func (s *Summary) Quantile(q float64) float64 {
	total := s.hist.Total()
	if total == 0 {
		return 0
	}
	lo, hi := s.min, s.max
	if lo > hi {
		// Degenerate bounds (e.g. summaries assembled from partial state,
		// or merged in an order that never saw a real sample range): treat
		// the observed range as [max, min] so the result stays inside it
		// and remains monotone in q.
		lo, hi = hi, lo
	}
	if q <= 0 {
		return lo
	}
	if q >= 1 {
		return hi
	}
	v := binTable.Rep[s.hist.Rank(int64(math.Ceil(q*float64(total))))]
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}

// Merge folds other into s. Use it to aggregate per-array summaries.
// Merged into an empty s, o is copied, counts and all.
func (s *Summary) Merge(o *Summary) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *o
		s.hist = logbin.Counts{}
		s.hist.Merge(&o.hist)
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
	s.hist.Merge(&o.hist)
}

func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f std=%.3f min=%.3f max=%.3f",
		s.n, s.Mean(), s.Std(), s.Min(), s.Max())
}
