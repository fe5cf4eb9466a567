package report

import (
	"fmt"
	"math"

	"raidsim/internal/stats"
)

// overlaps reports whether the two confidence intervals intersect — the
// benchstat criterion for an insignificant delta.
func overlaps(a, b stats.Estimate) bool {
	return a.Mean-a.Half <= b.Mean+b.Half && b.Mean-b.Half <= a.Mean+a.Half
}

// CompareRow pairs one named quantity's A and B estimates.
type CompareRow struct {
	Name string
	A, B stats.Estimate
}

// CompareTable builds a benchstat-style A-vs-B table: each row shows
// both estimates and the relative delta, written "~" when the
// confidence intervals overlap (the difference is not resolvable at
// this replication count).
func CompareTable(title, unit, aLabel, bLabel string, rows []CompareRow) *Table {
	t := &Table{
		Title:   title,
		Columns: []string{"name", fmt.Sprintf("%s (%s)", aLabel, unit), fmt.Sprintf("%s (%s)", bLabel, unit), "delta"},
	}
	insignificant := 0
	for _, r := range rows {
		delta := "~"
		switch {
		case r.A.Mean == 0:
			delta = "?"
		case overlaps(r.A, r.B):
			insignificant++
		default:
			delta = fmt.Sprintf("%+.1f%%", 100*(r.B.Mean-r.A.Mean)/math.Abs(r.A.Mean))
		}
		t.AddRow(r.Name, r.A.String(), r.B.String(), delta)
	}
	if insignificant > 0 {
		t.AddNote("~ marks deltas whose 95%% confidence intervals overlap (n too small to resolve)")
	}
	return t
}
