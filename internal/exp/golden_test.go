package exp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExperimentsGolden pins every registered experiment's rendered
// output — titles, row and tick labels, series names and order, cell
// values and notes — as text and as CSV, on both traces at a tiny scale,
// with every experiment run in -all order on one Context. Regenerate the
// goldens by hand with
//
//	go run ./cmd/experiments -all -scale 0.005 -seed 1 -quiet > internal/exp/testdata/experiments.txt
//
// and the same command with -csv into experiments.csv.
func TestExperimentsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	for _, tc := range []struct {
		file string
		csv  bool
	}{{"experiments.txt", false}, {"experiments.csv", true}} {
		t.Run(tc.file, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			var buf strings.Builder
			ctx := mustContext(Options{Scale: 0.005, Seed: 1, Out: &buf, CSV: tc.csv})
			for _, e := range All() {
				if err := e.Run(ctx); err != nil {
					t.Fatalf("%s: %v", e.ID, err)
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
