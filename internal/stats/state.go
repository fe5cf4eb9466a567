package stats

import (
	"fmt"

	"raidsim/internal/logbin"
)

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
	lo, counts := s.hist.Occupied()
	for i, c := range counts {
		if c != 0 {
			st.Bins = append(st.Bins, [2]int64{int64(lo + i), c})
		}
	}
	return st
}

// FromState reconstructs a Summary from a captured state. State writes
// strictly ascending bins whose counts sum to N, so anything else — a bin
// out of range, out of order or repeated, a negative count, or a count
// total other than N — is an error: a corrupt or foreign journal record,
// not a format this package ever wrote.
func FromState(st SummaryState) (Summary, error) {
	s := Summary{n: st.N, mean: st.Mean, m2: st.M2, min: st.Min, max: st.Max}
	var total int64
	for i, bc := range st.Bins {
		b, c := bc[0], bc[1]
		if b < 0 || b >= logbin.Bins {
			return Summary{}, fmt.Errorf("stats: histogram bin %d out of range [0, %d)", b, logbin.Bins)
		}
		if i > 0 && b <= st.Bins[i-1][0] {
			return Summary{}, fmt.Errorf("stats: histogram bin %d follows bin %d; bins must ascend strictly", b, st.Bins[i-1][0])
		}
		if c < 0 {
			return Summary{}, fmt.Errorf("stats: negative count %d in histogram bin %d", c, b)
		}
		total += c
	}
	if total != st.N {
		return Summary{}, fmt.Errorf("stats: histogram bins hold %d samples, summary counts %d", total, st.N)
	}
	if len(st.Bins) > 0 {
		s.hist.Cover(int(st.Bins[0][0]), int(st.Bins[len(st.Bins)-1][0])+1)
		for _, bc := range st.Bins {
			s.hist.Add(int(bc[0]), bc[1])
		}
	}
	return s, nil
}
