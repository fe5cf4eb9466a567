package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// ArraySnapshot is one array's state as of its latest sampler tick, the
// unit the live introspection server renders. Window statistics cover the
// current (partial) window.
type ArraySnapshot struct {
	Array          int
	SimSeconds     float64
	Reads          int64 // completed read requests, cumulative
	Writes         int64 // completed write requests, cumulative
	QueueDepth     int   // requests waiting in disk queues now
	DirtyFrac      float64
	Degraded       bool
	Rebuilding     bool
	RebuildDisk    int
	RebuildFrac    float64
	WindowRequests int64
	WindowMeanMS   float64
	WindowP95MS    float64
	UtilMean       float64 // mean disk busy fraction over the current window
	Events         uint64  // engine events executed, cumulative
}

// Live is the thread-safe registry the introspection HTTP server reads:
// each array's recorder publishes a snapshot on its sampler tick, from its
// own simulation goroutine, while the server goroutine renders them. A
// campaign additionally publishes fleet-wide state (run lifecycle, worker
// occupancy, aggregate engine throughput) through the methods in fleet.go.
type Live struct {
	mu     sync.Mutex
	arrays map[int]ArraySnapshot

	// Fleet state (fleet.go). Armed by SetFleet; zero until then.
	fleetTotal int
	// execStart is when the first fresh run started: journal replays
	// finish in microseconds before execution begins, so rates and ETAs
	// extrapolated from fresh runs measure from here.
	execStart   time.Time
	runs        map[string]RunStatus
	workers     []WorkerStatus // indexed by worker; done runs only
	running     int            // runs whose latest state is "running"
	finished    int
	failed      int
	resumed     int
	events      uint64
	freshEvents uint64
	groups      map[string]*groupAgg
}

// NewLive returns an empty registry.
func NewLive() *Live { return &Live{arrays: map[int]ArraySnapshot{}} }

// Publish stores the snapshot (keyed by its Array field).
func (l *Live) Publish(s ArraySnapshot) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.arrays[s.Array] = s
	l.mu.Unlock()
}

// Snapshots returns the latest snapshot of every array, ordered by array.
func (l *Live) Snapshots() []ArraySnapshot {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := make([]ArraySnapshot, 0, len(l.arrays))
	for _, s := range l.arrays {
		out = append(out, s)
	}
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Array < out[j].Array })
	return out
}

// promMetric describes one exposed metric family.
type promMetric struct {
	name, typ, help string
	rows            func(w io.Writer, s ArraySnapshot)
}

// WriteMetrics renders every array's latest snapshot in Prometheus text
// exposition format.
func (l *Live) WriteMetrics(w io.Writer) {
	snaps := l.Snapshots()
	families := []promMetric{
		{"raidsim_sim_seconds", "gauge", "Simulated time reached by the array.",
			func(w io.Writer, s ArraySnapshot) {
				fmt.Fprintf(w, "raidsim_sim_seconds{array=\"%d\"} %g\n", s.Array, s.SimSeconds)
			}},
		{"raidsim_requests_total", "counter", "Completed logical requests by direction.",
			func(w io.Writer, s ArraySnapshot) {
				fmt.Fprintf(w, "raidsim_requests_total{array=\"%d\",op=\"read\"} %d\n", s.Array, s.Reads)
				fmt.Fprintf(w, "raidsim_requests_total{array=\"%d\",op=\"write\"} %d\n", s.Array, s.Writes)
			}},
		{"raidsim_queue_depth", "gauge", "Requests waiting in the array's disk queues.",
			func(w io.Writer, s ArraySnapshot) {
				fmt.Fprintf(w, "raidsim_queue_depth{array=\"%d\"} %d\n", s.Array, s.QueueDepth)
			}},
		{"raidsim_cache_dirty_fraction", "gauge", "Dirty fraction of the NV cache (0 when uncached).",
			func(w io.Writer, s ArraySnapshot) {
				fmt.Fprintf(w, "raidsim_cache_dirty_fraction{array=\"%d\"} %g\n", s.Array, s.DirtyFrac)
			}},
		{"raidsim_degraded", "gauge", "1 while any slot of the array is unreadable.",
			func(w io.Writer, s ArraySnapshot) {
				v := 0
				if s.Degraded {
					v = 1
				}
				fmt.Fprintf(w, "raidsim_degraded{array=\"%d\"} %d\n", s.Array, v)
			}},
		{"raidsim_rebuild_progress", "gauge", "Fraction of the failed slot reconstructed onto its spare.",
			func(w io.Writer, s ArraySnapshot) {
				if !s.Rebuilding {
					return
				}
				fmt.Fprintf(w, "raidsim_rebuild_progress{array=\"%d\",disk=\"%d\"} %g\n",
					s.Array, s.RebuildDisk, s.RebuildFrac)
			}},
		{"raidsim_window_requests", "gauge", "Requests completed in the current window.",
			func(w io.Writer, s ArraySnapshot) {
				fmt.Fprintf(w, "raidsim_window_requests{array=\"%d\"} %d\n", s.Array, s.WindowRequests)
			}},
		{"raidsim_window_response_ms", "gauge", "Response time over the current window.",
			func(w io.Writer, s ArraySnapshot) {
				fmt.Fprintf(w, "raidsim_window_response_ms{array=\"%d\",stat=\"mean\"} %g\n", s.Array, s.WindowMeanMS)
				fmt.Fprintf(w, "raidsim_window_response_ms{array=\"%d\",stat=\"p95\"} %g\n", s.Array, s.WindowP95MS)
			}},
		{"raidsim_disk_util", "gauge", "Mean disk busy fraction over the current window.",
			func(w io.Writer, s ArraySnapshot) {
				fmt.Fprintf(w, "raidsim_disk_util{array=\"%d\"} %g\n", s.Array, s.UtilMean)
			}},
		{"raidsim_engine_events_total", "counter", "Discrete-event engine events executed.",
			func(w io.Writer, s ArraySnapshot) {
				fmt.Fprintf(w, "raidsim_engine_events_total{array=\"%d\"} %d\n", s.Array, s.Events)
			}},
	}
	for _, f := range families {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for _, s := range snaps {
			f.rows(w, s)
		}
	}
	l.writeFleetMetrics(w)
}
