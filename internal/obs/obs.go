// Package obs is the simulator's windowed time-series observability
// layer. A Recorder receives probe emissions from the sim engine, the
// disks, the array front-ends, the cache destage process, and the
// fault/rebuild machinery, and folds them into fixed-width time windows:
// log-bucketed latency histograms (p50/p95/p99/max per window),
// throughput, per-disk utilization, queue depth, cache dirty fraction,
// degraded-mode occupancy, and rebuild traffic — the transient phenomena
// the steady-state means of the paper's figures collapse away. An
// optional bounded ring buffer keeps the high-rate events for JSONL
// export; the few lifecycle events of a run (disk failures, spare swaps,
// rebuild completions, cache failures, sickness onsets and clears) are
// kept in full beside it.
//
// A nil *Recorder is the off switch: every method nil-checks its
// receiver and returns, so instrumented hot paths cost one predictable
// branch when observability is disabled and simulation results stay
// bit-identical.
package obs

import (
	"fmt"

	"raidsim/internal/sim"
)

// Config sizes a Recorder.
type Config struct {
	// Window is the time-series window width; <= 0 means DefaultWindow.
	Window sim.Time
	// Disks is the number of drives whose utilization is tracked.
	Disks int
	// TraceCap bounds the ring of high-rate events (requests, destage
	// batches, timeouts, retries, hedges, sheds, data losses); 0 keeps
	// none of them. Lifecycle events (Note) are kept in full regardless.
	TraceCap int
	// SpanTopK enables the per-request span tracer and sizes its tail
	// capture: the slowest K request span trees are retained per class
	// (read/write × normal/degraded). 0 disables tracing entirely.
	SpanTopK int
	// Live, when non-nil, receives a thread-safe ArraySnapshot on every
	// sampler tick for the introspection HTTP server.
	Live *Live
	// Array tags this recorder's live snapshots and exported spans.
	Array int
	// Classes names the workload's client classes; when non-empty,
	// ClassRequest attributes completions to per-class window counters
	// and the series grows per-class columns.
	Classes []string
}

// DefaultWindow is the window width when Config.Window is unset.
const DefaultWindow = sim.Second

// Enabled reports whether this config asks for observability at all.
func (c Config) Enabled() bool {
	return c.Window > 0 || c.TraceCap > 0 || c.SpanTopK > 0 || c.Live != nil
}

// maxWindows caps the window slice so a runaway clock cannot exhaust
// memory (each window holds a per-disk busy slice and histograms sized to
// their occupied bins, up to 2 KB each); past the cap, samples fold into
// the last window. 64 Ki windows is 18 hours at a 1 s window.
const maxWindows = 1 << 16

// window accumulates one fixed-width interval of activity.
type window struct {
	hist     Histogram  // response-time samples completing in the window, ms
	reads    int64      // read requests completed
	writes   int64      // write requests completed
	busy     []sim.Time // per-disk mechanism busy time inside the window
	queueSum int64      // sampled queue depths (sum over samples)
	queueN   int64
	dirtySum float64 // sampled cache dirty fraction
	dirtyN   int64
	destages int64 // destage batches issued
	destaged int64 // blocks written back by destage batches
	rebuild  int64 // blocks moved by rebuild sweeps
	degraded sim.Time
	steps    uint64 // engine events executed in the window

	// Robustness counters (zero unless the request-robustness layer is
	// enabled): deadline misses, transient-error retries, hedged read
	// legs and wins, and requests shed by admission control.
	timeouts  int64
	retries   int64
	hedges    int64
	hedgeWins int64
	shed      int64

	// Per-client-class tallies, indexed like Config.Classes; nil on
	// classless recorders (and on growth windows until first touched).
	cls []classWindow
}

// classWindow is one client class's share of a window: completions,
// summed response ms, and a response histogram for per-class quantiles.
type classWindow struct {
	n    int64
	ms   float64
	hist Histogram
}

// Recorder folds probe emissions into time windows. It is single-
// goroutine, like the engine that drives it; independent arrays each get
// their own Recorder and their Series are merged afterwards.
type Recorder struct {
	cfg    Config
	win    sim.Time
	wins   []*window
	ring   *ring
	notes  []note
	tracer *Tracer

	end       sim.Time // latest timestamp observed
	lastSteps uint64

	degradedOn    bool
	degradedSince sim.Time

	// Cumulative counters and rebuild progress for live snapshots.
	totReads, totWrites int64
	rbDisk              int
	rbFrac              float64
}

// NewRecorder returns a Recorder for the config. The zero-window config
// gets DefaultWindow.
func NewRecorder(cfg Config) *Recorder {
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	r := &Recorder{cfg: cfg, win: cfg.Window, rbDisk: -1}
	if cfg.TraceCap > 0 {
		r.ring = newRing(cfg.TraceCap)
	}
	if cfg.SpanTopK > 0 {
		r.tracer = NewTracer(cfg.SpanTopK, DefaultSpanBgCap)
	}
	return r
}

// Tracer returns the recorder's span tracer (nil when tracing is off or
// the recorder itself is nil, which keeps the off switch a single nil
// span down the pipeline).
func (r *Recorder) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.tracer
}

// Window returns the window width (DefaultWindow if the recorder is nil,
// so callers can size samplers without a guard).
func (r *Recorder) Window() sim.Time {
	if r == nil {
		return DefaultWindow
	}
	return r.win
}

func (r *Recorder) observe(t sim.Time) {
	if t > r.end {
		r.end = t
	}
}

// at returns the window containing time t, growing the slice as needed.
func (r *Recorder) at(t sim.Time) *window {
	idx := int(t / r.win)
	if idx >= maxWindows {
		idx = maxWindows - 1
	}
	for len(r.wins) <= idx {
		r.wins = append(r.wins, &window{busy: make([]sim.Time, r.cfg.Disks)})
	}
	return r.wins[idx]
}

// Request records a completed logical request: its completion time,
// direction, and response in milliseconds.
func (r *Recorder) Request(at sim.Time, write bool, ms float64) {
	if r == nil {
		return
	}
	r.observe(at)
	w := r.at(at)
	w.hist.Add(ms)
	if write {
		w.writes++
		r.totWrites++
	} else {
		w.reads++
		r.totReads++
	}
	if r.ring != nil {
		r.ring.append(Event{At: at, Kind: EvRequest, MS: ms, Write: write})
	}
}

// ClassRequest attributes a completed request to its workload client
// class (an index into Config.Classes). Called alongside Request, never
// instead of it, so classless totals are untouched.
func (r *Recorder) ClassRequest(at sim.Time, class int, ms float64) {
	if r == nil || class < 0 || class >= len(r.cfg.Classes) {
		return
	}
	r.observe(at)
	w := r.at(at)
	if len(w.cls) < len(r.cfg.Classes) {
		w.cls = make([]classWindow, len(r.cfg.Classes))
	}
	c := &w.cls[class]
	c.n++
	c.ms += ms
	c.hist.Add(ms)
}

// Timeout records a request that completed past its deadline: class,
// completion time, and response in milliseconds.
func (r *Recorder) Timeout(at sim.Time, class int, ms float64) {
	if r == nil {
		return
	}
	r.observe(at)
	r.at(at).timeouts++
	if r.ring != nil {
		r.ring.append(Event{At: at, Kind: EvTimeout, MS: ms, Class: class})
	}
}

// Retry records one transient-error retry against slot disk.
func (r *Recorder) Retry(at sim.Time, disk, attempt int) {
	if r == nil {
		return
	}
	r.observe(at)
	r.at(at).retries++
	if r.ring != nil {
		r.ring.append(Event{At: at, Kind: EvRetry, Disk: disk, Blocks: attempt})
	}
}

// HedgeIssued records a speculative second read leg sent to slot disk.
func (r *Recorder) HedgeIssued(at sim.Time, disk int) {
	if r == nil {
		return
	}
	r.observe(at)
	r.at(at).hedges++
	if r.ring != nil {
		r.ring.append(Event{At: at, Kind: EvHedge, Disk: disk})
	}
}

// HedgeWon records a hedge leg finishing before the primary.
func (r *Recorder) HedgeWon(at sim.Time, disk int) {
	if r == nil {
		return
	}
	r.observe(at)
	r.at(at).hedgeWins++
	if r.ring != nil {
		r.ring.append(Event{At: at, Kind: EvHedgeWin, Disk: disk})
	}
}

// Shed records a request rejected by admission control.
func (r *Recorder) Shed(at sim.Time, class int, write bool) {
	if r == nil {
		return
	}
	r.observe(at)
	r.at(at).shed++
	if r.ring != nil {
		r.ring.append(Event{At: at, Kind: EvShed, Class: class, Write: write})
	}
}

// DiskBusy attributes one drive's mechanism-busy interval [from, to) to
// the windows it overlaps. Implements disk.Probe.
func (r *Recorder) DiskBusy(id int, from, to sim.Time) {
	if r == nil || to <= from || id < 0 || id >= r.cfg.Disks {
		return
	}
	r.observe(to)
	for from < to {
		idx := from / r.win
		wend := (idx + 1) * r.win
		seg := to - from
		if wend < to {
			seg = wend - from
		}
		r.at(from).busy[id] += seg
		from += seg
	}
}

// Sample records one uniform-in-time snapshot: the total queued requests
// across the array's drives, the cache dirty fraction (0 when uncached),
// and the engine's cumulative executed-event count.
func (r *Recorder) Sample(at sim.Time, queueDepth int, dirtyFrac float64, steps uint64) {
	if r == nil {
		return
	}
	r.observe(at)
	w := r.at(at)
	w.queueSum += int64(queueDepth)
	w.queueN++
	w.dirtySum += dirtyFrac
	w.dirtyN++
	if steps >= r.lastSteps {
		w.steps += steps - r.lastSteps
		r.lastSteps = steps
	}
	if r.cfg.Live != nil {
		r.publishLive(at, w, queueDepth, dirtyFrac)
	}
}

// publishLive pushes a snapshot of the current window to the live
// registry. Reading the recorder's own window is safe: Sample runs on the
// array's simulation goroutine, the registry handles cross-goroutine
// hand-off.
func (r *Recorder) publishLive(at sim.Time, w *window, queueDepth int, dirtyFrac float64) {
	s := ArraySnapshot{
		Array:          r.cfg.Array,
		SimSeconds:     float64(at) / float64(sim.Second),
		Reads:          r.totReads,
		Writes:         r.totWrites,
		QueueDepth:     queueDepth,
		DirtyFrac:      dirtyFrac,
		Degraded:       r.degradedOn,
		Rebuilding:     r.rbDisk >= 0,
		RebuildDisk:    r.rbDisk,
		RebuildFrac:    r.rbFrac,
		WindowRequests: w.hist.N(),
		WindowMeanMS:   w.hist.Mean(),
		WindowP95MS:    w.hist.Quantile(0.95),
		Events:         r.lastSteps,
	}
	winStart := (at / r.win) * r.win
	if span := at - winStart; span > 0 && r.cfg.Disks > 0 {
		var busy sim.Time
		for _, b := range w.busy {
			busy += b
		}
		s.UtilMean = float64(busy) / float64(sim.Time(r.cfg.Disks)*span)
	}
	r.cfg.Live.Publish(s)
}

// RebuildProgress records how far the rebuild of the given slot has
// swept, as a fraction of the drive; frac >= 1 clears the live gauge.
func (r *Recorder) RebuildProgress(disk int, frac float64) {
	if r == nil {
		return
	}
	if frac >= 1 {
		r.rbDisk, r.rbFrac = -1, 0
		return
	}
	r.rbDisk, r.rbFrac = disk, frac
}

// Destage records one periodic destage batch of the given block count.
func (r *Recorder) Destage(at sim.Time, blocks int) {
	if r == nil {
		return
	}
	r.observe(at)
	w := r.at(at)
	w.destages++
	w.destaged += int64(blocks)
	if r.ring != nil {
		r.ring.append(Event{At: at, Kind: EvDestage, Blocks: blocks})
	}
}

// RebuildIO records one rebuild sweep chunk of the given block count.
func (r *Recorder) RebuildIO(at sim.Time, blocks int) {
	if r == nil {
		return
	}
	r.observe(at)
	r.at(at).rebuild += int64(blocks)
}

// Degraded records the array entering or leaving degraded mode; the time
// between transitions is attributed to the overlapped windows.
func (r *Recorder) Degraded(at sim.Time, on bool) {
	if r == nil || on == r.degradedOn {
		return
	}
	r.observe(at)
	if on {
		r.degradedOn, r.degradedSince = true, at
		return
	}
	r.degradedOn = false
	r.addDegraded(r.degradedSince, at)
}

func (r *Recorder) addDegraded(from, to sim.Time) {
	for from < to {
		idx := from / r.win
		wend := (idx + 1) * r.win
		seg := to - from
		if wend < to {
			seg = wend - from
		}
		r.at(from).degraded += seg
		from += seg
	}
}

// note is a lifecycle event with its place in emission order: the
// number of ring events appended before it.
type note struct {
	Event
	after int64
}

// Note keeps a lifecycle event — a few per run — in full, outside the
// bounded ring, so a long trace of request events cannot overwrite it.
func (r *Recorder) Note(e Event) {
	if r == nil {
		return
	}
	r.observe(e.At)
	var after int64
	if r.ring != nil {
		after = r.ring.total
	}
	r.notes = append(r.notes, note{Event: e, after: after})
}

// DataLoss records an unrecoverable read run on slot disk. It is one
// event per lost run, so it can be high-rate and goes to the ring.
func (r *Recorder) DataLoss(at sim.Time, disk, blocks int) {
	if r == nil {
		return
	}
	r.observe(at)
	if r.ring != nil {
		r.ring.append(Event{At: at, Kind: EvDataLoss, Disk: disk, Blocks: blocks})
	}
}

// Events returns the retained ring events and every lifecycle event,
// merged in emission order (which is chronological).
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	var evs []Event
	var first int64 // emission index of evs[0] among all ring events
	if r.ring != nil {
		evs = r.ring.events()
		first = r.ring.total - int64(len(evs))
	}
	if len(r.notes) == 0 {
		return evs
	}
	out := make([]Event, 0, len(evs)+len(r.notes))
	k := 0
	for i, e := range evs {
		for ; k < len(r.notes) && r.notes[k].after <= first+int64(i); k++ {
			out = append(out, r.notes[k].Event)
		}
		out = append(out, e)
	}
	for ; k < len(r.notes); k++ {
		out = append(out, r.notes[k].Event)
	}
	return out
}

// EventsDropped returns how many events the bounded ring overwrote.
func (r *Recorder) EventsDropped() int64 {
	if r == nil || r.ring == nil {
		return 0
	}
	return r.ring.dropped
}

// Series hands the recorder's windows over as a mergeable, renderable
// time series, without copying them, and leaves the recorder with none:
// it is the recorder's last read. The open degraded interval (a rebuild
// still running at the end) is closed at the latest observed timestamp.
func (r *Recorder) Series() *Series {
	if r == nil {
		return nil
	}
	if r.degradedOn {
		r.addDegraded(r.degradedSince, r.end)
		r.degradedSince = r.end
	}
	s := &Series{
		Window:  r.win,
		Disks:   r.cfg.Disks,
		End:     r.end,
		Classes: append([]string(nil), r.cfg.Classes...),
		wins:    r.wins,
	}
	r.wins = nil
	return s
}

func (c Config) String() string {
	return fmt.Sprintf("obs{window=%v disks=%d trace=%d spans=%d}", c.Window, c.Disks, c.TraceCap, c.SpanTopK)
}
