package workload

import (
	"runtime"
	"testing"

	"raidsim/internal/trace"
)

// TestGenerateAllocBudget gates the bytes generation allocates per
// record it writes. The records themselves take 32 B each; the locality
// rings must follow the trace's length, not the profile's window: a
// short Trace 2 stream must not pay for a 150,000-address window it
// never fills, and a spec window of 2^40 addresses must not be reserved
// up front at all. Allocation does not depend on the host, so the
// budgets are exact enough to gate on.
func TestGenerateAllocBudget(t *testing.T) {
	huge := Spec{Name: "huge-window", Disks: 4, DurationS: 60, Clients: []ClientSpec{{
		Name: "c", Requests: 2000, WindowProb: 0.5, LocalityWindow: 1 << 40,
	}}}
	cases := []struct {
		name   string
		gen    func() (*trace.Trace, error)
		budget float64 // bytes per record
	}{
		{"trace2@0.02", func() (*trace.Trace, error) { return Generate(Trace2Profile().Scaled(0.02)) }, 96},
		// Trace 1's 600,000-address window is smaller than the 840,626
		// records it serves, so here the ring is the window.
		{"trace1@0.25", func() (*trace.Trace, error) { return Generate(Trace1Profile().Scaled(0.25)) }, 40},
		{"window-2^40", huge.Generate, 96},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			tr, err := c.gen()
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			per := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(tr.Records))
			t.Logf("%d records, %.1f B allocated per record", len(tr.Records), per)
			if per > c.budget {
				t.Fatalf("generation allocates %.1f B per record, budget %.0f", per, c.budget)
			}
		})
	}
}
