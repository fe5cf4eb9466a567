package obs

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"raidsim/internal/rng"
	"raidsim/internal/sim"
	"raidsim/internal/stats"
)

// TestHistogramQuantileErrorBounds checks the documented guarantee of
// both logbin histograms, Histogram and stats.Summary: any quantile
// estimate is within sqrt(growth)-1 relative error of the exact order
// statistic, across distributions with very different shapes.
func TestHistogramQuantileErrorBounds(t *testing.T) {
	src := rng.New(7)
	dists := map[string]func() float64{
		"uniform": func() float64 { return 0.1 + 99.9*src.Float64() },
		"exp-ish": func() float64 { return -20 * math.Log(1-src.Float64()) },
		"lognormal": func() float64 {
			return math.Exp(3 + 1.2*math.Sqrt(-2*math.Log(1-src.Float64()))*math.Cos(2*math.Pi*src.Float64()))
		},
	}
	for name, draw := range dists {
		var h Histogram
		var s stats.Summary
		samples := make([]float64, 20000)
		for i := range samples {
			samples[i] = draw()
			h.Add(samples[i])
			s.Add(samples[i])
		}
		sort.Float64s(samples)
		for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
			exact := samples[int(math.Ceil(q*float64(len(samples))))-1]
			for _, e := range []struct {
				name        string
				got, growth float64
			}{{"Histogram", h.Quantile(q), histGrowth}, {"stats.Summary", s.Quantile(q), 1.07 /* stats.histStep */}} {
				bound := math.Sqrt(e.growth) - 1
				if rel := math.Abs(e.got-exact) / exact; rel > bound+1e-9 {
					t.Errorf("%s %s q%.2f: got %.4f exact %.4f rel err %.4f > bound %.4f",
						e.name, name, q, e.got, exact, rel, bound)
				}
			}
		}
		if h.Max() != samples[len(samples)-1] {
			t.Errorf("%s: max %.4f, want exact %.4f", name, h.Max(), samples[len(samples)-1])
		}
	}
}

func TestHistogramEdges(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must read all-zero")
	}
	h.Add(0)   // below histLo folds into bin 0
	h.Add(1e9) // far past the last bin
	h.Add(-3)  // negative folds into bin 0 too
	if h.N() != 3 {
		t.Fatalf("N = %d, want 3", h.N())
	}
	if got := h.Quantile(1); got != 1e9 {
		t.Fatalf("q1.0 = %g, want clamped exact max 1e9", got)
	}
	var o Histogram
	o.Add(50)
	h.Merge(&o)
	if h.N() != 4 || h.Max() != 1e9 {
		t.Fatalf("after merge: n=%d max=%g", h.N(), h.Max())
	}
}

// TestWindowRollover checks samples land in the window their timestamp
// selects, that busy intervals split exactly across boundaries, and that
// the last (partial) window normalizes by its covered span.
func TestWindowRollover(t *testing.T) {
	r := NewRecorder(Config{Window: sim.Second, Disks: 2})
	// Requests: two in window 0, one exactly on the boundary (window 1).
	r.Request(100*sim.Millisecond, false, 5)
	r.Request(999*sim.Millisecond, true, 7)
	r.Request(1*sim.Second, false, 9)
	// A busy interval spanning [0.5s, 2.5s): 0.5s in w0, 1s in w1, 0.5s in w2.
	r.DiskBusy(0, 500*sim.Millisecond, 2500*sim.Millisecond)
	pts := r.Series().Points()
	if len(pts) != 3 {
		t.Fatalf("got %d windows, want 3", len(pts))
	}
	if pts[0].Requests != 2 || pts[0].Reads != 1 || pts[0].Writes != 1 {
		t.Errorf("w0 requests = %d (%d r, %d w), want 2 (1, 1)", pts[0].Requests, pts[0].Reads, pts[0].Writes)
	}
	if pts[1].Requests != 1 {
		t.Errorf("boundary request landed in the wrong window: w1 has %d", pts[1].Requests)
	}
	// Utilization: per-disk mean over 2 disks → busy/(2*window).
	wantU := []float64{0.25, 0.5, 0.5}
	for i, want := range wantU {
		if math.Abs(pts[i].UtilMean-want) > 1e-9 {
			t.Errorf("w%d util %.4f, want %.4f", i, pts[i].UtilMean, want)
		}
	}
	// w2 is partial (covers only [2s, 2.5s)): its busiest disk is saturated.
	if math.Abs(pts[2].UtilMax-1.0) > 1e-9 {
		t.Errorf("partial window util max %.4f, want 1.0", pts[2].UtilMax)
	}
	if pts[2].End != 2500*sim.Millisecond {
		t.Errorf("partial window end %d, want 2.5s", pts[2].End)
	}
}

func TestDegradedAttribution(t *testing.T) {
	r := NewRecorder(Config{Window: sim.Second, Disks: 1})
	r.Degraded(1500*sim.Millisecond, true)
	r.Degraded(3500*sim.Millisecond, false)
	pts := r.Series().Points()
	// w3 is partial (observed span ends at 3.5 s), so its covered span
	// was entirely degraded: frac 1.0, not 0.5.
	want := []float64{0, 0.5, 1, 1}
	for i, p := range pts {
		if math.Abs(p.DegradedFrac-want[i]) > 1e-9 {
			t.Errorf("w%d degraded frac %.3f, want %.3f", i, p.DegradedFrac, want[i])
		}
	}
	// Handing the series over with the degraded interval still open
	// closes it at the last observed time.
	r2 := NewRecorder(Config{Window: sim.Second, Disks: 1})
	r2.Degraded(0, true)
	r2.Request(2*sim.Second, false, 1) // advances the observed end
	if got := r2.Series().Points()[1].DegradedFrac; math.Abs(got-1) > 1e-9 {
		t.Errorf("open degraded window: w1 frac %.3f, want 1.0", got)
	}
}

// TestRingWraparound fills the bounded trace past capacity and checks the
// survivors are the newest events, in chronological order.
func TestRingWraparound(t *testing.T) {
	r := NewRecorder(Config{Window: sim.Second, Disks: 1, TraceCap: 8})
	for i := 0; i < 20; i++ {
		r.Request(sim.Time(i)*sim.Millisecond, false, float64(i))
	}
	evs := r.Events()
	if len(evs) != 8 {
		t.Fatalf("ring kept %d events, want 8", len(evs))
	}
	for i, e := range evs {
		if want := float64(12 + i); e.MS != want {
			t.Errorf("event %d: ms %.0f, want %.0f (newest 8, in order)", i, e.MS, want)
		}
	}
	if r.EventsDropped() != 12 {
		t.Errorf("dropped %d, want 12", r.EventsDropped())
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, evs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 9 {
		t.Fatalf("JSONL has %d lines, want schema + 8 events", len(lines))
	}
	if !strings.Contains(lines[0], EventSchemaVersion) {
		t.Errorf("JSONL schema line missing: %s", lines[0])
	}
	if !strings.Contains(lines[1], `"kind":"request"`) {
		t.Errorf("JSONL line lacks kind: %s", lines[1])
	}
}

// TestLifecycleEventsOutliveTheRing: lifecycle events (Note) survive a
// ring that wraps many times over, data losses do not, and Events merges
// the two in emission order, ties included.
func TestLifecycleEventsOutliveTheRing(t *testing.T) {
	ms := func(i int) sim.Time { return sim.Time(i) * sim.Millisecond }
	kinds := func(evs []Event) string {
		var s []string
		for _, e := range evs {
			s = append(s, fmt.Sprintf("%s@%d", e.Kind, e.At/sim.Millisecond))
		}
		return strings.Join(s, " ")
	}
	for _, tc := range []struct {
		cap  int
		want string
	}{
		{4, "disk-fail@0 spare-swap@5 request@8 request@9 sick-onset@9 request@9 request@10 rebuild-done@10"},
		{0, "disk-fail@0 spare-swap@5 sick-onset@9 rebuild-done@10"},
	} {
		r := NewRecorder(Config{Window: sim.Second, Disks: 1, TraceCap: tc.cap})
		r.Note(Event{At: 0, Kind: EvDiskFail})
		r.DataLoss(ms(1), 0, 8)
		for i := 1; i <= 10; i++ {
			r.Request(ms(i), false, 1)
			switch i {
			case 5:
				r.Note(Event{At: ms(5), Kind: EvSpareSwap})
			case 9:
				r.Note(Event{At: ms(9), Kind: EvSickOnset})
				r.Request(ms(9), true, 1)
			}
		}
		r.Note(Event{At: ms(10), Kind: EvRebuildDone})
		if got := kinds(r.Events()); got != tc.want {
			t.Errorf("TraceCap %d: events\n got %s\nwant %s", tc.cap, got, tc.want)
		}
		if want := int64(max(0, 12-tc.cap)); tc.cap > 0 && r.EventsDropped() != want {
			t.Errorf("TraceCap %d: dropped %d, want %d", tc.cap, r.EventsDropped(), want)
		}
	}
}

// TestNilRecorder: every probe must be safe (and free) on a nil receiver.
func TestNilRecorder(t *testing.T) {
	var r *Recorder
	r.Request(0, false, 1)
	r.DiskBusy(0, 0, sim.Second)
	r.Sample(0, 3, 0.5, 10)
	r.Destage(0, 4)
	r.RebuildIO(0, 48)
	r.Degraded(0, true)
	r.Note(Event{Kind: EvDiskFail})
	r.DataLoss(0, 0, 1)
	if r.Events() != nil || r.EventsDropped() != 0 || r.Series() != nil {
		t.Fatal("nil recorder must read empty")
	}
	if r.Window() != DefaultWindow {
		t.Fatalf("nil recorder window %d, want DefaultWindow", r.Window())
	}
}

func TestSeriesMerge(t *testing.T) {
	a := NewRecorder(Config{Window: sim.Second, Disks: 2})
	b := NewRecorder(Config{Window: sim.Second, Disks: 3})
	a.Request(100*sim.Millisecond, false, 10)
	a.DiskBusy(0, 0, sim.Second)
	b.Request(200*sim.Millisecond, true, 30)
	b.Request(1200*sim.Millisecond, false, 20)
	b.Sample(300*sim.Millisecond, 6, 0.5, 100)

	s := a.Series()
	s.Merge(b.Series())
	if s.Disks != 5 {
		t.Fatalf("merged disks %d, want 5", s.Disks)
	}
	pts := s.Points()
	if len(pts) != 2 {
		t.Fatalf("merged windows %d, want 2", len(pts))
	}
	if pts[0].Requests != 2 || pts[1].Requests != 1 {
		t.Errorf("merged request counts %d/%d, want 2/1", pts[0].Requests, pts[1].Requests)
	}
	// Merged mean is exact: (10 + 30) / 2.
	if math.Abs(pts[0].MeanMS-20) > 1e-9 {
		t.Errorf("merged mean %.3f, want 20", pts[0].MeanMS)
	}
	// Merged utilization spans all five disks: 1s busy / (5 disks * 1s).
	if math.Abs(pts[0].UtilMean-0.2) > 1e-9 {
		t.Errorf("merged util %.4f, want 0.2", pts[0].UtilMean)
	}
	if pts[0].QueueMean != 6 || pts[0].DirtyFrac != 0.5 {
		t.Errorf("merged samples: queue %.1f dirty %.2f, want 6 and 0.5", pts[0].QueueMean, pts[0].DirtyFrac)
	}
}

func TestSeriesCSV(t *testing.T) {
	r := NewRecorder(Config{Window: sim.Second, Disks: 1})
	r.Request(100*sim.Millisecond, false, 10)
	r.Destage(500*sim.Millisecond, 16)
	var buf bytes.Buffer
	if err := r.Series().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want schema + header + 1 window", len(lines))
	}
	if lines[0] != "# schema "+SeriesSchemaVersion {
		t.Errorf("schema line mismatch: %s", lines[0])
	}
	if lines[1] != strings.Join(csvHeader, ",") {
		t.Errorf("header mismatch: %s", lines[1])
	}
	if !strings.HasPrefix(lines[2], "0.000,1,1,0,") {
		t.Errorf("row mismatch: %s", lines[2])
	}
	if !strings.Contains(lines[2], ",16,") { // destaged blocks column
		t.Errorf("destaged blocks missing from row: %s", lines[2])
	}
}

// TestSamplerStepsDelta: cumulative engine step counts convert to
// per-window deltas.
func TestSamplerStepsDelta(t *testing.T) {
	r := NewRecorder(Config{Window: sim.Second, Disks: 1})
	r.Sample(250*sim.Millisecond, 0, 0, 100)
	r.Sample(750*sim.Millisecond, 0, 0, 180)
	r.Sample(1250*sim.Millisecond, 0, 0, 300)
	pts := r.Series().Points()
	if pts[0].Steps != 180 || pts[1].Steps != 120 {
		t.Errorf("step deltas %d/%d, want 180/120", pts[0].Steps, pts[1].Steps)
	}
}

// TestWindowCapBounded: a pathological timestamp cannot allocate more
// than maxWindows windows.
func TestWindowCapBounded(t *testing.T) {
	r := NewRecorder(Config{Window: sim.Millisecond, Disks: 1})
	r.Request(sim.Time(maxWindows+100)*sim.Millisecond, false, 1)
	if n := r.Series().Len(); n != maxWindows {
		t.Fatalf("windows %d, want capped at %d", n, maxWindows)
	}
}

var _ = fmt.Sprintf
