package obs

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// RunStatus is one campaign run's lifecycle state as the fleet registry
// tracks it: identity, which worker holds it, and — once finished — the
// run's scalar outcome and engine self-metrics. The registry keeps the
// latest status per run ID; /runs serves them sorted by ID.
type RunStatus struct {
	ID     string `json:"id"`
	Group  string `json:"group,omitempty"` // params minus the seed axis
	Seed   uint64 `json:"seed"`
	Worker int    `json:"worker"`
	// State is "running", "done", "failed", or "resumed" (replayed from
	// the journal without simulating).
	State string `json:"state"`
	Err   string `json:"err,omitempty"`

	WallMS       float64 `json:"wall_ms"`
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	Requests     int64   `json:"requests"`
	MeanMS       float64 `json:"mean_ms"`
}

// WorkerStatus is one pool worker's share of a campaign's fresh runs:
// how many it finished and their summed host wall time (each run's
// WallMS).
type WorkerStatus struct {
	Worker int   `json:"worker"`
	Tasks  int   `json:"tasks"`
	BusyNS int64 `json:"busy_ns"`
}

// GroupAggregate is the fleet registry's running response-time aggregate
// for one parameter group (all replications of one configuration).
type GroupAggregate struct {
	Group    string  `json:"group"`
	Runs     int     `json:"runs"`
	Requests int64   `json:"requests"`
	MeanMS   float64 `json:"mean_ms"` // request-weighted across the group's runs
}

type groupAgg struct {
	runs     int
	requests int64
	sumMS    float64 // sum of run mean * run requests
}

// FleetStatus is the aggregate view of a campaign in flight: progress
// counters, engine throughput, and worker occupancy. Every figure is
// derived from the RunStarted/RunFinished stream.
type FleetStatus struct {
	Total    int `json:"total"`
	Running  int `json:"running"`
	Finished int `json:"finished"` // freshly executed, successfully
	Failed   int `json:"failed"`
	Resumed  int `json:"resumed"` // journal replays

	// Events sums engine events over done and resumed runs.
	Events uint64 `json:"events"`

	// FreshEvents counts only events from freshly executed runs (journal
	// replays fold their recorded events into Events without simulating
	// anything); ExecElapsedSec is wall time since the first fresh run
	// started. FreshEventsPerSec = FreshEvents / ExecElapsedSec is the
	// honest live throughput on a resumed campaign — replayed events over
	// replay microseconds would report absurd rates. It stays 0 until
	// ExecElapsedSec reaches MinRateWindowSec (see freshRate).
	FreshEvents       uint64  `json:"fresh_events"`
	FreshEventsPerSec float64 `json:"fresh_events_per_sec"`
	ExecElapsedSec    float64 `json:"exec_elapsed_sec"`

	// Workers[w] sums the done runs worker w finished; resumed and
	// failed runs add nothing, so a replay-only pass leaves it empty.
	Workers []WorkerStatus   `json:"workers,omitempty"`
	Groups  []GroupAggregate `json:"groups,omitempty"`
}

// MinRateWindowSec is the shortest execution window FleetStatus derives a
// fresh events/sec rate from. Below it the clock is too coarse, relative
// to one run's events, for the quotient to mean anything: a run that
// finishes microseconds after the first RunStarted would report billions
// of events per second.
const MinRateWindowSec = 0.010

// freshRate returns events / elapsedSec, or 0 — no rate yet — while
// elapsedSec is below MinRateWindowSec.
func freshRate(events uint64, elapsedSec float64) float64 {
	if elapsedSec < MinRateWindowSec {
		return 0
	}
	return float64(events) / elapsedSec
}

// done returns finished+failed+resumed: points that left the pending set.
func (f FleetStatus) done() int { return f.Finished + f.Failed + f.Resumed }

// SetFleet arms the fleet section of the registry for a campaign of
// total runs, resetting any previous campaign's state.
func (l *Live) SetFleet(total int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.fleetTotal = total
	l.execStart = time.Time{}
	l.runs = make(map[string]RunStatus, total)
	l.workers = nil
	l.running, l.finished, l.failed, l.resumed = 0, 0, 0, 0
	l.events, l.freshEvents = 0, 0
	l.groups = map[string]*groupAgg{}
	l.mu.Unlock()
}

// RunStarted records that a worker picked up a run.
func (l *Live) RunStarted(id, group string, seed uint64, worker int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.ensureFleet()
	if l.execStart.IsZero() {
		l.execStart = time.Now()
	}
	if l.runs[id].State != "running" {
		l.running++
	}
	l.runs[id] = RunStatus{ID: id, Group: group, Seed: seed, Worker: worker, State: "running"}
	l.mu.Unlock()
}

// RunFinished records a run's terminal status. st.State selects the
// counter: "done" (fresh execution), "resumed" (journal replay), and
// anything else counts as failed. Done and resumed runs fold into the
// fleet's event totals and their group's response aggregate; a done run
// also adds one task and its WallMS to its worker's ledger. The run's
// EventsPerSec is set to Events / WallMS.
func (l *Live) RunFinished(st RunStatus) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.ensureFleet()
	st.EventsPerSec = 0
	if st.WallMS > 0 {
		st.EventsPerSec = float64(st.Events) / (st.WallMS / 1e3)
	}
	if l.runs[st.ID].State == "running" {
		l.running--
	}
	l.runs[st.ID] = st
	switch st.State {
	case "done":
		l.finished++
		for len(l.workers) <= st.Worker {
			l.workers = append(l.workers, WorkerStatus{Worker: len(l.workers)})
		}
		l.workers[st.Worker].Tasks++
		l.workers[st.Worker].BusyNS += int64(st.WallMS * 1e6)
	case "resumed":
		l.resumed++
	default:
		l.failed++
	}
	if st.State == "done" || st.State == "resumed" {
		l.events += st.Events
		if st.State == "done" {
			l.freshEvents += st.Events
		}
		g := l.groups[st.Group]
		if g == nil {
			g = &groupAgg{}
			l.groups[st.Group] = g
		}
		g.runs++
		g.requests += st.Requests
		g.sumMS += st.MeanMS * float64(st.Requests)
	}
	l.mu.Unlock()
}

// ensureFleet lazily initializes fleet maps for callers that publish
// runs without SetFleet (total then stays 0 = unknown). Callers hold mu.
func (l *Live) ensureFleet() {
	if l.runs == nil {
		l.runs = map[string]RunStatus{}
	}
	if l.groups == nil {
		l.groups = map[string]*groupAgg{}
	}
}

// Runs returns every tracked run's latest status, sorted by ID.
func (l *Live) Runs() []RunStatus {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := make([]RunStatus, 0, len(l.runs))
	for _, st := range l.runs {
		out = append(out, st)
	}
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Fleet returns the aggregate campaign status.
func (l *Live) Fleet() FleetStatus {
	if l == nil {
		return FleetStatus{}
	}
	l.mu.Lock()
	f := FleetStatus{
		Total:       l.fleetTotal,
		Running:     l.running,
		Finished:    l.finished,
		Failed:      l.failed,
		Resumed:     l.resumed,
		Events:      l.events,
		FreshEvents: l.freshEvents,
		Workers:     append([]WorkerStatus(nil), l.workers...),
	}
	if !l.execStart.IsZero() {
		f.ExecElapsedSec = time.Since(l.execStart).Seconds()
	}
	f.FreshEventsPerSec = freshRate(f.FreshEvents, f.ExecElapsedSec)
	for name, g := range l.groups {
		ga := GroupAggregate{Group: name, Runs: g.runs, Requests: g.requests}
		if g.requests > 0 {
			ga.MeanMS = g.sumMS / float64(g.requests)
		}
		f.Groups = append(f.Groups, ga)
	}
	l.mu.Unlock()
	sort.Slice(f.Groups, func(i, j int) bool { return f.Groups[i].Group < f.Groups[j].Group })
	return f
}

// writeFleetMetrics appends the fleet metric families to a /metrics
// response; a registry that never saw fleet traffic emits nothing.
func (l *Live) writeFleetMetrics(w io.Writer) {
	l.mu.Lock()
	armed := l.fleetTotal > 0 || len(l.runs) > 0
	l.mu.Unlock()
	if !armed {
		return
	}
	f := l.Fleet()
	fmt.Fprintf(w, "# HELP raidsim_fleet_runs_total Campaign runs by terminal state.\n# TYPE raidsim_fleet_runs_total counter\n")
	fmt.Fprintf(w, "raidsim_fleet_runs_total{state=\"done\"} %d\n", f.Finished)
	fmt.Fprintf(w, "raidsim_fleet_runs_total{state=\"failed\"} %d\n", f.Failed)
	fmt.Fprintf(w, "raidsim_fleet_runs_total{state=\"resumed\"} %d\n", f.Resumed)
	fmt.Fprintf(w, "# HELP raidsim_fleet_runs_running Campaign runs currently executing.\n# TYPE raidsim_fleet_runs_running gauge\n")
	fmt.Fprintf(w, "raidsim_fleet_runs_running %d\n", f.Running)
	fmt.Fprintf(w, "# HELP raidsim_fleet_runs_planned Total runs in the campaign.\n# TYPE raidsim_fleet_runs_planned gauge\n")
	fmt.Fprintf(w, "raidsim_fleet_runs_planned %d\n", f.Total)
	fmt.Fprintf(w, "# HELP raidsim_fleet_events_total Engine events summed over completed runs.\n# TYPE raidsim_fleet_events_total counter\n")
	fmt.Fprintf(w, "raidsim_fleet_events_total %d\n", f.Events)
	fmt.Fprintf(w, "# HELP raidsim_fleet_events_per_sec Engine events of fresh runs per wall-clock second since the first fresh run started.\n# TYPE raidsim_fleet_events_per_sec gauge\n")
	fmt.Fprintf(w, "raidsim_fleet_events_per_sec %g\n", f.FreshEventsPerSec)
	if len(f.Workers) > 0 {
		fmt.Fprintf(w, "# HELP raidsim_fleet_worker_tasks_total Fresh runs completed per pool worker.\n# TYPE raidsim_fleet_worker_tasks_total counter\n")
		for _, ws := range f.Workers {
			fmt.Fprintf(w, "raidsim_fleet_worker_tasks_total{worker=\"%d\"} %d\n", ws.Worker, ws.Tasks)
		}
		fmt.Fprintf(w, "# HELP raidsim_fleet_worker_busy_seconds Host wall time of the fresh runs this worker finished.\n# TYPE raidsim_fleet_worker_busy_seconds counter\n")
		for _, ws := range f.Workers {
			fmt.Fprintf(w, "raidsim_fleet_worker_busy_seconds{worker=\"%d\"} %g\n", ws.Worker, float64(ws.BusyNS)/1e9)
		}
	}
	if len(f.Groups) > 0 {
		fmt.Fprintf(w, "# HELP raidsim_group_requests_total Completed requests per parameter group.\n# TYPE raidsim_group_requests_total counter\n")
		for _, g := range f.Groups {
			fmt.Fprintf(w, "raidsim_group_requests_total{group=%q} %d\n", g.Group, g.Requests)
		}
		fmt.Fprintf(w, "# HELP raidsim_group_response_ms Request-weighted mean response time per parameter group.\n# TYPE raidsim_group_response_ms gauge\n")
		for _, g := range f.Groups {
			fmt.Fprintf(w, "raidsim_group_response_ms{group=%q,stat=\"mean\"} %g\n", g.Group, g.MeanMS)
		}
	}
}
