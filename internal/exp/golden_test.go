package exp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// figureSweepIDs are the paper's figure sweeps, in -all order.
var figureSweepIDs = []string{
	"fig4", "fig5", "fig8", "fig9", "fig10", "fig11", "fig12",
	"fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
}

// TestFigureSweepsGolden pins every figure sweep's rendered output — titles,
// tick labels, series names and order, and cell values — as text and as
// CSV, on both traces at a tiny scale. Regenerate the goldens by hand with
//
//	go run ./cmd/experiments -exp fig4,fig5,fig8,fig9,fig10,fig11,fig12,fig13,fig14,fig15,fig16,fig17,fig18,fig19 -scale 0.005 -seed 1 -quiet > internal/exp/testdata/figure_sweeps.txt
//
// and the same command with -csv into figure_sweeps.csv.
func TestFigureSweepsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every figure sweep")
	}
	for _, tc := range []struct {
		file string
		csv  bool
	}{{"figure_sweeps.txt", false}, {"figure_sweeps.csv", true}} {
		t.Run(tc.file, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			var buf strings.Builder
			ctx := NewContext(Options{Scale: 0.005, Seed: 1, Out: &buf, CSV: tc.csv})
			for _, id := range figureSweepIDs {
				e, err := Get(id)
				if err != nil {
					t.Fatal(err)
				}
				if err := e.Run(ctx); err != nil {
					t.Fatalf("%s: %v", id, err)
				}
			}
			got := strings.Split(buf.String(), "\n")
			lines := strings.Split(string(want), "\n")
			for i := 0; i < len(got) || i < len(lines); i++ {
				var g, w string
				if i < len(got) {
					g = got[i]
				}
				if i < len(lines) {
					w = lines[i]
				}
				if g != w {
					t.Fatalf("%s line %d:\n got %q\nwant %q", tc.file, i+1, g, w)
				}
			}
		})
	}
}
