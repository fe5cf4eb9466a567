package obs

import (
	"runtime"
	"testing"

	"raidsim/internal/rng"
	"raidsim/internal/sim"
)

// TestRecorderAllocBudget gates the bytes a recorder allocates per
// window, from NewRecorder through the Series hand-over. The stream is
// shaped like one array of the telemetry-faults benchmark workload: 10 s
// windows over 10 drives, 80 completions per window spread over three
// client classes with different latency scales, a busy interval per
// completion and four queue samples per window. Allocation does not
// depend on the host, so the budget is exact enough to gate on.
func TestRecorderAllocBudget(t *testing.T) {
	const (
		windows   = 4096
		perWindow = 80
		win       = 10 * sim.Second
	)
	means := []float64{4, 15, 60} // per-class mean response, ms
	src := rng.New(5)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r := NewRecorder(Config{Window: win, Disks: 10, Classes: []string{"oltp", "web", "batch"}})
	for w := 0; w < windows; w++ {
		start := sim.Time(w) * win
		for i := 0; i < perWindow; i++ {
			at := start + sim.Time(i)*(win/perWindow)
			class := src.Intn(len(means))
			ms := 1 + src.Exp(means[class])
			if src.Bool(0.02) {
				ms *= 10 // a tail sample: a retry or a sick drive
			}
			r.DiskBusy(i%10, at, at+sim.Time(ms*float64(sim.Millisecond)/2))
			r.Request(at, src.Bool(0.3), ms)
			r.ClassRequest(at, class, ms)
			if i%(perWindow/4) == 0 {
				r.Sample(at, src.Intn(8), 0, uint64(w*perWindow+i))
			}
		}
	}
	s := r.Series()
	runtime.ReadMemStats(&after)
	if s.Len() != windows {
		t.Fatalf("series has %d windows, want %d", s.Len(), windows)
	}
	per := float64(after.TotalAlloc-before.TotalAlloc) / windows
	t.Logf("%.0f B allocated per window", per)
	if per > 7168 {
		t.Fatalf("recorder allocates %.0f B per window, budget 7168", per)
	}
}
