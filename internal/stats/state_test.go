package stats

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"raidsim/internal/logbin"
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

// TestFromStateRejectsCorruptBins: State writes strictly ascending bins
// whose counts sum to N, so FromState rejects anything else, naming what
// is wrong. Each state is corrupt in one way only.
func TestFromStateRejectsCorruptBins(t *testing.T) {
	for _, c := range []struct {
		name string
		st   SummaryState
		want string
	}{
		{"bin past the last", SummaryState{N: 1, Bins: [][2]int64{{logbin.Bins, 1}}}, "out of range"},
		{"negative bin", SummaryState{N: 1, Bins: [][2]int64{{-1, 1}}}, "out of range"},
		{"negative count", SummaryState{N: -4, Bins: [][2]int64{{3, -4}}}, "negative count"},
		{"repeated bin", SummaryState{N: 3, Bins: [][2]int64{{3, 1}, {3, 2}}}, "bin 3 follows bin 3"},
		{"descending bins", SummaryState{N: 3, Bins: [][2]int64{{5, 1}, {3, 2}}}, "bin 3 follows bin 5"},
		{"count total is not N", SummaryState{N: 5, Bins: [][2]int64{{3, 1}}}, "hold 1 samples, summary counts 5"},
	} {
		_, err := FromState(c.st)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: FromState(%+v) error %v, want one containing %q", c.name, c.st, err, c.want)
		}
	}
}
