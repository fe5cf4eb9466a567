package array

import (
	"reflect"
	"testing"

	"raidsim/internal/stats"
)

// TestMergeClassesLeavesSourcesIntact: a Summary's histogram is a slice,
// so the merged table must not share one with a source; folding a
// second array in must leave the first array's classes as they were.
func TestMergeClassesLeavesSourcesIntact(t *testing.T) {
	table := func(xs ...float64) []ClassResults {
		var s stats.Summary
		for _, x := range xs {
			s.Add(x)
		}
		return []ClassResults{{Name: "oltp", Requests: int64(len(xs)), Resp: s}}
	}
	// b's bins lie inside a's, so merging b reallocates no counts.
	a, b := table(0.1, 3, 100), table(2, 3, 2.5)
	want := a[0].Resp.State()
	merged := MergeClasses(MergeClasses(nil, a), b)
	if got := a[0].Resp.State(); !reflect.DeepEqual(got, want) {
		t.Fatalf("merging b changed a's histogram:\n got %+v\nwant %+v", got, want)
	}
	if merged[0].Name != "oltp" || merged[0].Requests != 6 || merged[0].Resp.N() != 6 {
		t.Fatalf("merged %+v", merged[0])
	}
	if MergeClasses(nil, nil) != nil {
		t.Fatal("classless tables merged to a non-nil table")
	}
}
