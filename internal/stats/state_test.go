package stats

import (
	"encoding/json"
	"reflect"
	"testing"

	"raidsim/internal/rng"
)

// TestStateJSONRoundTripIsBitExact pins the property campaign journals
// depend on: State -> JSON -> FromState reproduces every accumulator
// bit and every histogram count, so merges built from replayed records
// are identical to merges built from live results.
func TestStateJSONRoundTripIsBitExact(t *testing.T) {
	src := rng.New(7)
	var s Summary
	for i := 0; i < 5000; i++ {
		s.Add(src.Exp(12.5))
	}
	raw, err := json.Marshal(s.State())
	if err != nil {
		t.Fatal(err)
	}
	var st SummaryState
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	got, err := FromState(st)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.State(), s.State()) {
		t.Fatalf("round trip drifted:\n got %+v\nwant %+v", got.State(), s.State())
	}
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if got.Quantile(q) != s.Quantile(q) {
			t.Fatalf("q=%g: %x vs %x", q, got.Quantile(q), s.Quantile(q))
		}
	}
}

func TestStateEmptySummary(t *testing.T) {
	var s Summary
	got, err := FromState(s.State())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.State(), s.State()) {
		t.Fatalf("empty summary round trip drifted: %+v", got.State())
	}
}

func TestFromStateRejectsCorruptBins(t *testing.T) {
	if _, err := FromState(SummaryState{Bins: [][2]int64{{nBins, 1}}}); err == nil {
		t.Fatal("out-of-range bin accepted")
	}
	if _, err := FromState(SummaryState{Bins: [][2]int64{{-1, 1}}}); err == nil {
		t.Fatal("negative bin accepted")
	}
	if _, err := FromState(SummaryState{Bins: [][2]int64{{3, -4}}}); err == nil {
		t.Fatal("negative count accepted")
	}
}
