package obs

import (
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestFleetLifecycle walks runs through started→finished states and
// checks every aggregate the registry derives.
func TestFleetLifecycle(t *testing.T) {
	l := NewLive()
	l.SetFleet(4)
	l.RunStarted("a", "g1", 1, 0)
	l.RunStarted("b", "g1", 2, 1)
	if f := l.Fleet(); f.Running != 2 {
		t.Errorf("running %d, want 2", f.Running)
	}
	l.RunFinished(RunStatus{ID: "a", Group: "g1", Worker: 0, State: "done", WallMS: 10, Events: 1000, Requests: 100, MeanMS: 2})
	l.RunFinished(RunStatus{ID: "b", Group: "g1", Worker: 1, State: "done", WallMS: 10, Events: 3000, Requests: 300, MeanMS: 4})
	l.RunFinished(RunStatus{ID: "c", Group: "g2", State: "resumed", WallMS: 7, Events: 500, Requests: 50, MeanMS: 1})
	l.RunStarted("d", "g2", 4, 0)
	l.RunFinished(RunStatus{ID: "d", Group: "g2", State: "failed", Err: "boom"})

	f := l.Fleet()
	if f.Total != 4 || f.Finished != 2 || f.Failed != 1 || f.Resumed != 1 || f.Running != 0 {
		t.Fatalf("fleet counters: %+v", f)
	}
	if f.done() != 4 {
		t.Errorf("done() = %d, want 4", f.done())
	}
	if f.Events != 4500 {
		t.Errorf("events %d, want 4500 (failed runs excluded)", f.Events)
	}
	// The ledger holds the two done runs only: the resumed run's
	// recorded wall time and the failed run add nothing.
	want := []WorkerStatus{{Worker: 0, Tasks: 1, BusyNS: 1e7}, {Worker: 1, Tasks: 1, BusyNS: 1e7}}
	if !reflect.DeepEqual(f.Workers, want) {
		t.Errorf("workers %+v, want %+v", f.Workers, want)
	}
	if len(f.Groups) != 2 || f.Groups[0].Group != "g1" {
		t.Fatalf("groups: %+v", f.Groups)
	}
	// g1 request-weighted mean: (2*100 + 4*300) / 400 = 3.5
	if g := f.Groups[0]; g.Runs != 2 || g.Requests != 400 || g.MeanMS != 3.5 {
		t.Errorf("g1 aggregate: %+v", g)
	}

	runs := l.Runs()
	if len(runs) != 4 {
		t.Fatalf("Runs() returned %d entries, want 4", len(runs))
	}
	for i, want := range []string{"a", "b", "c", "d"} {
		if runs[i].ID != want {
			t.Errorf("runs[%d].ID = %q, want %q (sorted)", i, runs[i].ID, want)
		}
	}
	if runs[3].State != "failed" || runs[3].Err != "boom" {
		t.Errorf("failed run status: %+v", runs[3])
	}
	// Finished runs derive events/sec from wall time, overriding any
	// rate the caller supplied.
	if runs[0].EventsPerSec != 1000/(10e-3) {
		t.Errorf("run a events/sec = %g, want 1e5", runs[0].EventsPerSec)
	}
	l.RunFinished(RunStatus{ID: "a", Group: "g1", State: "done", WallMS: 10, Events: 1000, EventsPerSec: 42})
	if got := l.Runs()[0].EventsPerSec; got != 1e5 {
		t.Errorf("supplied rate kept: run a events/sec = %g, want 1e5", got)
	}
}

// TestFleetRunningFailBeforeStart: a run that fails before it starts (a
// canceled context) finishes without a RunStarted. It must not hide
// another run that is still executing.
func TestFleetRunningFailBeforeStart(t *testing.T) {
	l := NewLive()
	l.SetFleet(3)
	l.RunStarted("a", "g", 1, 0)
	l.RunFinished(RunStatus{ID: "b", Group: "g", State: "failed", Err: "canceled"})
	if f := l.Fleet(); f.Running != 1 || f.Failed != 1 {
		t.Errorf("running %d failed %d, want 1 and 1 (a still runs)", f.Running, f.Failed)
	}
	l.RunStarted("a", "g", 1, 0) // a repeated start is still one run
	l.RunFinished(RunStatus{ID: "a", Group: "g", State: "done", WallMS: 1})
	if f := l.Fleet(); f.Running != 0 {
		t.Errorf("running %d after a finished, want 0", f.Running)
	}
}

// TestFleetWorkerLedger: per-worker tasks and busy time come from done
// runs alone, and a replay-only pass reports no workers and no fresh
// rate, in Fleet and in /metrics.
func TestFleetWorkerLedger(t *testing.T) {
	l := NewLive()
	l.SetFleet(4)
	for i, r := range []struct {
		worker int
		wallMS float64
	}{{0, 1.5}, {1, 2.25}, {0, 3}, {1, 0.125}} {
		id := fmt.Sprintf("r%d", i)
		l.RunStarted(id, "g", uint64(i), r.worker)
		l.RunFinished(RunStatus{ID: id, Group: "g", Worker: r.worker, State: "done", WallMS: r.wallMS, Events: 100})
	}
	f := l.Fleet()
	want := []WorkerStatus{{Worker: 0, Tasks: 2, BusyNS: 4_500_000}, {Worker: 1, Tasks: 2, BusyNS: 2_375_000}}
	if !reflect.DeepEqual(f.Workers, want) {
		t.Errorf("workers %+v, want %+v", f.Workers, want)
	}
	tasks := 0
	for _, w := range f.Workers {
		tasks += w.Tasks
	}
	if tasks != f.Finished {
		t.Errorf("worker tasks sum to %d, finished %d", tasks, f.Finished)
	}

	// A full resume: every run replays from the journal.
	l.SetFleet(4)
	for i := 0; i < 4; i++ {
		l.RunFinished(RunStatus{ID: fmt.Sprintf("r%d", i), Group: "g", Worker: i % 2, State: "resumed", WallMS: 2, Events: 1_000_000})
	}
	f = l.Fleet()
	if len(f.Workers) != 0 || f.FreshEventsPerSec != 0 || f.Resumed != 4 || f.Events != 4_000_000 {
		t.Errorf("replay-only fleet: %+v", f)
	}
	var b strings.Builder
	l.WriteMetrics(&b)
	if !strings.Contains(b.String(), "raidsim_fleet_events_per_sec 0\n") {
		t.Errorf("replay-only metrics report a rate:\n%s", b.String())
	}
	if strings.Contains(b.String(), "raidsim_fleet_worker_") {
		t.Errorf("replay-only metrics list workers:\n%s", b.String())
	}
}

// TestFleetFreshAccounting pins the resume-honest split the progress
// line depends on: journal replays fold into the total event counter but
// never into the fresh counters, and the fresh rate clock starts at the
// first RunStarted (after the replay pass), not at SetFleet.
func TestFleetFreshAccounting(t *testing.T) {
	l := NewLive()
	l.SetFleet(3)
	// Replay pass: two resumed runs, no RunStarted.
	l.RunFinished(RunStatus{ID: "r1", Group: "g", State: "resumed", Events: 500_000, Requests: 50})
	l.RunFinished(RunStatus{ID: "r2", Group: "g", State: "resumed", Events: 500_000, Requests: 50})
	f := l.Fleet()
	if f.FreshEvents != 0 || f.FreshEventsPerSec != 0 || f.ExecElapsedSec != 0 {
		t.Fatalf("replays leaked into fresh accounting: %+v", f)
	}
	if f.Events != 1_000_000 {
		t.Errorf("replayed events %d, want 1000000 in the journal-inclusive total", f.Events)
	}
	// One fresh execution.
	l.RunStarted("x", "g", 1, 0)
	l.RunFinished(RunStatus{ID: "x", Group: "g", State: "done", WallMS: 2, Events: 700, Requests: 10})
	f = l.Fleet()
	if f.FreshEvents != 700 {
		t.Errorf("fresh events %d, want 700", f.FreshEvents)
	}
	if f.ExecElapsedSec <= 0 {
		t.Errorf("exec clock never started: %+v", f)
	}
	if want := freshRate(700, f.ExecElapsedSec); f.FreshEventsPerSec != want {
		t.Errorf("fresh rate %g, want freshRate(700, %g) = %g: replayed events must not feed it",
			f.FreshEventsPerSec, f.ExecElapsedSec, want)
	}
}

// TestFreshRateFloor pins the rate floor with fixed elapsed times, so it
// holds however fast the host's clock advances between calls: no rate
// below MinRateWindowSec, the plain quotient from it on.
func TestFreshRateFloor(t *testing.T) {
	for _, tc := range []struct {
		events  uint64
		elapsed float64
		want    float64
	}{
		{700, 0, 0},
		{700, 1e-9, 0}, // a nanosecond window would read 7e11 ev/s
		{700, MinRateWindowSec / 2, 0},
		{1000, MinRateWindowSec, 1000 / MinRateWindowSec},
		{50_000, 0.5, 100_000},
		{0, 2, 0},
	} {
		if got := freshRate(tc.events, tc.elapsed); got != tc.want {
			t.Errorf("freshRate(%d, %g) = %g, want %g", tc.events, tc.elapsed, got, tc.want)
		}
	}
}

// TestFleetConcurrentPublish hammers the registry from many goroutines
// (the campaign worker-pool shape) while readers render metrics and run
// lists; run under -race this is the data-race check the fleet registry
// is specified against.
func TestFleetConcurrentPublish(t *testing.T) {
	l := NewLive()
	const workers, runsPer = 8, 50
	l.SetFleet(workers * runsPer)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < runsPer; i++ {
				id := fmt.Sprintf("w%d-r%03d", w, i)
				l.RunStarted(id, fmt.Sprintf("g%d", i%4), uint64(i), w)
				l.RunFinished(RunStatus{
					ID: id, Group: fmt.Sprintf("g%d", i%4), Worker: w,
					State: "done", WallMS: 1, Events: 100, Requests: 10, MeanMS: 2,
				})
			}
		}(w)
	}
	// Concurrent readers: the HTTP server's view.
	done := make(chan struct{})
	var rg sync.WaitGroup
	for r := 0; r < 2; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-done:
					return
				default:
					l.WriteMetrics(io.Discard)
					_ = l.Runs()
					_ = l.Fleet()
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	rg.Wait()

	f := l.Fleet()
	if f.Finished != workers*runsPer {
		t.Errorf("finished %d, want %d", f.Finished, workers*runsPer)
	}
	if f.Events != uint64(workers*runsPer*100) {
		t.Errorf("events %d, want %d", f.Events, workers*runsPer*100)
	}
	if len(l.Runs()) != workers*runsPer {
		t.Errorf("tracked %d runs, want %d", len(l.Runs()), workers*runsPer)
	}
	if f.Running != 0 {
		t.Errorf("running %d after every run finished", f.Running)
	}
	if len(f.Workers) != workers {
		t.Fatalf("ledger has %d workers, want %d", len(f.Workers), workers)
	}
	for w, ws := range f.Workers {
		if ws.Worker != w || ws.Tasks != runsPer || ws.BusyNS != int64(runsPer*1e6) {
			t.Errorf("worker %d ledger %+v, want %d tasks and %d ns", w, ws, runsPer, int64(runsPer*1e6))
		}
	}
}

// TestFleetMetricsAndRuns checks the HTTP surface: fleet families appear
// in /metrics only once fleet traffic exists, and /runs serves JSON.
func TestFleetMetricsAndRuns(t *testing.T) {
	l := NewLive()
	var b strings.Builder
	l.WriteMetrics(&b)
	if strings.Contains(b.String(), "raidsim_fleet_") {
		t.Errorf("fleet families rendered with no fleet traffic:\n%s", b.String())
	}

	l.SetFleet(2)
	l.RunFinished(RunStatus{ID: "x", Group: "n=5", State: "done", WallMS: 5, Events: 200, Requests: 20, MeanMS: 7})
	b.Reset()
	l.WriteMetrics(&b)
	for _, want := range []string{
		"raidsim_fleet_runs_total{state=\"done\"} 1",
		"raidsim_fleet_runs_planned 2",
		"raidsim_fleet_events_total 200",
		"raidsim_fleet_worker_tasks_total{worker=\"0\"} 1",
		"raidsim_fleet_worker_busy_seconds{worker=\"0\"} 0.005",
		"raidsim_group_requests_total{group=\"n=5\"} 20",
		"raidsim_group_response_ms{group=\"n=5\",stat=\"mean\"} 7",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("metrics missing %q:\n%s", want, b.String())
		}
	}

	srv, err := Serve("127.0.0.1:0", l)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/runs content type %q", ct)
	}
	for _, want := range []string{`"id": "x"`, `"state": "done"`, `"total": 2`, `"busy_ns": 5000000`} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/runs missing %q:\n%s", want, body)
		}
	}
}
