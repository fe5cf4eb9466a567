package report

import (
	"strings"
	"testing"

	"raidsim/internal/stats"
)

func TestEstimateString(t *testing.T) {
	if got := (stats.Estimate{Mean: 12.3456, N: 1}).String(); got != "12.35" {
		t.Errorf("single-rep estimate = %q", got)
	}
	if got := (stats.Estimate{Mean: 10, Half: 0.5, N: 8}).String(); got != "10.00 ±5.0%" {
		t.Errorf("estimate with CI = %q", got)
	}
}

func TestCompareTableGolden(t *testing.T) {
	tbl := CompareTable("raid5 vs mirror", "ms", "raid5", "mirror", []CompareRow{
		{Name: "resp", A: stats.Estimate{Mean: 40, Half: 1, N: 4}, B: stats.Estimate{Mean: 30, Half: 1, N: 4}},
		{Name: "read", A: stats.Estimate{Mean: 20, Half: 4, N: 4}, B: stats.Estimate{Mean: 22, Half: 4, N: 4}},
		{Name: "write", A: stats.Estimate{}, B: stats.Estimate{Mean: 5, N: 1}},
	})
	var buf strings.Builder
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	want := "raid5 vs mirror\n" +
		"name   raid5 (ms)     mirror (ms)    delta \n" +
		"-------------------------------------------\n" +
		"resp    40.00 ±2.5%   30.00 ±3.3%  -25.0%\n" +
		"read   20.00 ±20.0%  22.00 ±18.2%  ~     \n" +
		"write           0.00           5.00  ?     \n" +
		"note: ~ marks deltas whose 95% confidence intervals overlap (n too small to resolve)\n\n"
	if got := buf.String(); got != want {
		t.Errorf("compare table drifted:\n got:\n%q\nwant:\n%q", got, want)
	}
}

func TestCompareTableDeltaSign(t *testing.T) {
	tbl := CompareTable("t", "ms", "a", "b", []CompareRow{
		{Name: "up", A: stats.Estimate{Mean: 10, N: 1}, B: stats.Estimate{Mean: 15, N: 1}},
	})
	if tbl.Rows[0][3] != "+50.0%" {
		t.Errorf("delta = %q, want +50.0%%", tbl.Rows[0][3])
	}
}
