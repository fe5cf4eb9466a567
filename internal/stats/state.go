package stats

import "fmt"

// SummaryState is the exported, JSON-serializable form of a Summary:
// the Welford accumulators plus the histogram as sparse (bin, count)
// pairs. Go's encoding/json emits float64 with the shortest
// round-trippable representation, so State -> JSON -> FromState
// reproduces the Summary bit for bit — the property campaign journals
// rely on to make a resumed merge identical to an uninterrupted one.
type SummaryState struct {
	N    int64      `json:"n"`
	Mean float64    `json:"mean"`
	M2   float64    `json:"m2"`
	Min  float64    `json:"min"`
	Max  float64    `json:"max"`
	Bins [][2]int64 `json:"bins,omitempty"` // sparse histogram: [bin index, count]
}

// State captures the summary for serialization.
func (s *Summary) State() SummaryState {
	st := SummaryState{N: s.n, Mean: s.mean, M2: s.m2, Min: s.min, Max: s.max}
	for i, c := range s.hist.counts {
		if c != 0 {
			st.Bins = append(st.Bins, [2]int64{int64(s.hist.lo + i), c})
		}
	}
	return st
}

// FromState reconstructs a Summary from a captured state. Bin indexes
// outside the histogram range are an error (a corrupt or foreign
// journal record, not a format this package ever wrote).
func FromState(st SummaryState) (Summary, error) {
	s := Summary{n: st.N, mean: st.Mean, m2: st.M2, min: st.Min, max: st.Max}
	lo, hi := nBins, 0
	for _, bc := range st.Bins {
		b, c := bc[0], bc[1]
		if b < 0 || b >= nBins {
			return Summary{}, fmt.Errorf("stats: histogram bin %d out of range [0, %d)", b, nBins)
		}
		if c < 0 {
			return Summary{}, fmt.Errorf("stats: negative count %d in histogram bin %d", c, b)
		}
		lo, hi = min(lo, int(b)), max(hi, int(b)+1)
	}
	if lo < hi {
		s.hist.cover(lo, hi)
		for _, bc := range st.Bins {
			s.hist.counts[int(bc[0])-s.hist.lo] = bc[1]
		}
	}
	return s, nil
}
