package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"raidsim/internal/array"
	"raidsim/internal/campaign"
	"raidsim/internal/core"
	"raidsim/internal/sim"
)

// perLayer are the traced run's metrics, each measured from outside the
// simulator: by timing the benchmark's own calls into a module's public
// functions, or by reading the results those calls return. Every
// workload reports every one.
var perLayer = []metricDef{
	{"sim.ns_per_event", "ns/event", "lower", 0, "host"},
	{"sim.events_per_req", "events/req", "lower", 0, "exact"},
	{"sim.heap_high_water", "events", "lower", 0, "exact"},
	{"disk.ns_per_req", "ns/req", "lower", 0, "host"},
	{"disk.accesses_per_req", "accesses/req", "lower", 0, "exact"},
	{"disk.queue_wait_frac", "ratio", "lower", 0, "simulated"},
	{"array.ns_per_req", "ns/req", "lower", 0, "host"},
	{"array.parity_accesses_per_req", "accesses/req", "lower", 0, "exact"},
	{"array.held_rotations_per_req", "rotations/req", "lower", 0, "exact"},
	{"array.new_us", "us", "lower", 0, "host"},
	{"cache.ns_per_req", "ns/req", "lower", 0, "host"},
	{"cache.read_hit_ratio", "ratio", "higher", 0, "exact"},
	{"cache.write_hit_ratio", "ratio", "higher", 0, "exact"},
	{"cache.destages_per_req", "destages/req", "lower", 0, "exact"},
	{"cache.peak_parity", "blocks", "lower", 0, "exact"},
	{"cache.parity_stalls", "count", "lower", 0, "exact"},
	{"array.robust_ns_per_req", "ns/req", "lower", 0, "host"},
	{"array.hedge_win_ratio", "ratio", "higher", 0, "exact"},
	{"array.retry_amplification", "attempts/read", "lower", 0, "exact"},
	{"fault.ns_per_req", "ns/req", "lower", 0, "host"},
	{"fault.degraded_req_frac", "ratio", "lower", 0, "simulated"},
	{"obs.ns_per_req", "ns/req", "lower", 0, "host"},
	{"obs.spans_ns_per_req", "ns/req", "lower", 0, "host"},
	{"obs.bytes_per_req", "B/req", "lower", 0, "host"},
	{"core.cpu_util", "ratio", "higher", 0, "host"},
	{"core.array_req_imbalance", "ratio", "lower", 0, "exact"},
	{"trace.split_ms", "ms", "lower", 0, "host"},
	{"workload.gen_s", "s", "lower", 0, "host"},
	{"workload.ns_per_req", "ns/req", "lower", 0, "host"},
	{"campaign.journal_us_per_run", "us", "lower", 0, "host"},
	{"runtime.allocs_per_req", "allocs/req", "lower", 0, "host"},
	{"runtime.bytes_per_req", "B/req", "lower", 0, "host"},
	{"runtime.gc_cpu_frac", "ratio", "lower", 0, "host"},
}

// fleetOnly are fleet-grid's campaign-phase metrics. No other workload
// runs those phases, so they go to layers.json only.
var fleetOnly = []metricDef{
	{"campaign.run_ms_p50", "ms", "lower", 0, "host"},
	{"campaign.run_ms_p99", "ms", "lower", 0, "host"},
	{"campaign.points_ms", "ms", "lower", 0, "host"},
	{"campaign.execute_s", "s", "lower", 0, "host"},
	{"campaign.merge_ms", "ms", "lower", 0, "host"},
	{"campaign.pool_occupancy", "ratio", "higher", 0, "host"},
}

// agg folds the results of every run of a traced pass.
type agg struct {
	requests, accesses, parity, held   int64
	readHits, reads, writeHits, writes int64
	destages, stalls, peakParity       int64
	hedges, hedgeWins, retries, readN  int64
	degraded, completed                int64
	queueMS, stageMS                   float64
	heapHW                             int
	imbalance                          float64
}

func (a *agg) add(r *core.Results) {
	if a == nil {
		return
	}
	a.requests += r.Requests
	for _, n := range r.DiskAccesses {
		a.accesses += n
	}
	a.parity += r.ParityAccesses
	a.held += r.HeldRotations
	a.readHits += r.ReadHits
	a.reads += r.ReadHits + r.ReadMisses
	a.writeHits += r.WriteHits
	a.writes += r.WriteHits + r.WriteMisses
	a.destages += r.Cache.Destages
	a.stalls += r.Cache.ParityStalls
	a.peakParity = max(a.peakParity, int64(r.Cache.PeakParity))
	a.hedges += r.Robust.Hedges
	a.hedgeWins += r.Robust.HedgeWins
	a.retries += r.Robust.Retries
	a.readN += r.ReadResp.N()
	a.degraded += r.DegradedResp.N()
	a.completed += r.NormalResp.N() + r.DegradedResp.N()
	a.queueMS += r.Stages.QueueMS
	a.stageMS += r.Stages.Total()
	a.heapHW = max(a.heapHW, r.Engine.HeapHighWater)
	var most, sum int64
	for _, p := range r.PerArray {
		most = max(most, p.Requests)
		sum += p.Requests
	}
	a.imbalance = max(a.imbalance, ratio(float64(most)*float64(len(r.PerArray)), float64(sum)))
}

// layerReport is one workload's entry in layers.json.
type layerReport struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	TracedWallS float64            `json:"traced_wall_s"`
	Metrics     map[string]value   `json:"metrics"`
	Spans       []spanSummary      `json:"spans"`
	Ladder      map[string]float64 `json:"ladder_ns_per_req"`
}

type spanSummary struct {
	Name   string  `json:"name"`
	DurMS  float64 `json:"dur_ms"`
	SelfMS float64 `json:"self_ms"`
}

// traced runs one pass of the workload with spans at every call the
// benchmark makes and the engine self-meter armed, then the ladder and
// the timed calls the per-layer metrics need. It writes
// trace-<workload>.json and layers-<workload>.json to outDir.
func traced(w *workloadDef, seed uint64, smoke bool, outDir string, want map[string]string) (*result, error) {
	tr := &tracer{t0: time.Now()}
	root := tr.begin("bench/" + w.name)
	m := map[string]float64{}

	sp := tr.begin("workload.gen")
	var genS []float64
	records := 0
	for len(genS) < 3 {
		t := time.Now()
		tt, err := w.gen(seed, smoke)
		if err != nil {
			return nil, err
		}
		genS = append(genS, time.Since(t).Seconds())
		records = len(tt.Records)
	}
	tr.end(sp)
	m["workload.gen_s"] = quantile(genS, 0.5)
	m["workload.ns_per_req"] = m["workload.gen_s"] * 1e9 / float64(records)

	sp = tr.begin("setup")
	t := time.Now()
	in, err := w.setup(seed, smoke)
	setupMS := ms(time.Since(t))
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	runtime.GC()
	// The pass runs uncalibrated so that core.cpu_util compares like
	// with like; calibrations on either side scale its wall time for
	// trace_overhead.
	sm := newSpeedMeter()
	cal0 := sm.calibrate(calMin)
	ag := &agg{}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, err := cpuSeconds()
	if err != nil {
		return nil, err
	}
	o, err := in.pass(tr, ag, outDir, nil)
	if err != nil {
		return nil, err
	}
	cpu1, err := cpuSeconds()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	refWallS := o.wallS * calRefMS / ((cal0 + sm.calibrate(calMin)) / 2)
	res := &result{Attempted: o.attempted, Failed: o.failed(want), Metrics: map[string]value{}}
	res.Correct = res.Failed == 0
	for k, msg := range o.bad {
		fmt.Fprintf(os.Stderr, "%s: %s: %s\n", w.name, k, msg)
	}

	reqs := float64(ag.requests)
	m["sim.events_per_req"] = float64(o.events) / reqs
	m["sim.heap_high_water"] = float64(ag.heapHW)
	m["disk.accesses_per_req"] = float64(ag.accesses) / reqs
	m["disk.queue_wait_frac"] = ratio(ag.queueMS, ag.stageMS)
	m["array.parity_accesses_per_req"] = float64(ag.parity) / reqs
	m["array.held_rotations_per_req"] = float64(ag.held) / reqs
	m["cache.read_hit_ratio"] = ratio(float64(ag.readHits), float64(ag.reads))
	m["cache.write_hit_ratio"] = ratio(float64(ag.writeHits), float64(ag.writes))
	m["cache.destages_per_req"] = float64(ag.destages) / reqs
	m["cache.peak_parity"] = float64(ag.peakParity)
	m["cache.parity_stalls"] = float64(ag.stalls)
	m["array.hedge_win_ratio"] = ratio(float64(ag.hedgeWins), float64(ag.hedges))
	m["array.retry_amplification"] = ratio(float64(ag.readN+ag.retries), float64(ag.readN))
	m["fault.degraded_req_frac"] = ratio(float64(ag.degraded), float64(ag.completed))
	m["core.array_req_imbalance"] = ag.imbalance
	m["core.cpu_util"] = (cpu1 - cpu0) / (o.simulateS * float64(runtime.GOMAXPROCS(0)))
	m["runtime.allocs_per_req"] = float64(ms1.Mallocs-ms0.Mallocs) / reqs
	m["runtime.bytes_per_req"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / reqs
	m["runtime.gc_cpu_frac"] = ms1.GCCPUFraction
	if o.camp != nil {
		m["campaign.points_ms"] = setupMS
		m["campaign.run_ms_p50"] = quantile(o.runMS, 0.5)
		m["campaign.run_ms_p99"] = quantile(o.runMS, 0.99)
		m["campaign.execute_s"] = o.executeS
		m["campaign.merge_ms"] = o.mergeS * 1e3
		var busy time.Duration
		for _, ws := range o.camp.Workers {
			busy += ws.Busy
		}
		m["campaign.pool_occupancy"] = ratio(float64(busy), float64(len(o.camp.Workers))*float64(o.camp.Elapsed))
	}

	if m["trace.split_ms"], err = timeSplits(tr, in); err != nil {
		return nil, err
	}
	if m["campaign.journal_us_per_run"], err = timeJournal(tr, o, outDir); err != nil {
		return nil, err
	}
	if m["array.new_us"], err = timeArrayNew(tr, in); err != nil {
		return nil, err
	}
	ladderNS, err := runLadder(tr, w, in, smoke, m)
	if err != nil {
		return nil, err
	}
	tr.end(root)

	for _, d := range perLayer {
		res.Metrics[d.name] = value{m[d.name], d.unit}
	}
	rep := layerReport{Workload: w.name, Seed: seed, TracedWallS: refWallS, Metrics: map[string]value{},
		Spans: tr.summaries(), Ladder: ladderNS}
	for _, d := range append(append([]metricDef(nil), perLayer...), fleetOnly...) {
		if v, ok := m[d.name]; ok {
			rep.Metrics[d.name] = value{v, d.unit}
		}
	}
	if err := writeJSON(filepath.Join(outDir, "layers-"+w.name+".json"), rep); err != nil {
		return nil, err
	}
	if err := writeJSON(filepath.Join(outDir, "trace-"+w.name+".json"), tr.chrome(1, w.name)); err != nil {
		return nil, err
	}
	return res, nil
}

// timeSplits times trace.SplitByGroup at every array width the workload
// runs, repeated until 50 ms have passed; it returns the median ms of one
// split at each width.
func timeSplits(tr *tracer, in *input) (float64, error) {
	widths := map[int]bool{}
	for _, r := range in.runs {
		widths[r.cfg.N] = true
	}
	for _, p := range in.points {
		widths[p.Config.N] = true
	}
	sp := tr.begin("trace.split")
	defer tr.end(sp)
	var samples []float64
	start := time.Now()
	for len(samples) < 3 || time.Since(start) < 50*time.Millisecond {
		t := time.Now()
		for n := range widths {
			if _, err := in.tr.SplitByGroup(n); err != nil {
				return 0, err
			}
		}
		samples = append(samples, ms(time.Since(t)))
	}
	return quantile(samples, 0.5), nil
}

// timeJournal appends the pass's run records to a fresh journal and
// returns the mean host microseconds per append.
func timeJournal(tr *tracer, o *outcome, outDir string) (float64, error) {
	recs := o.records
	if o.camp != nil {
		recs = o.camp.Records
	}
	dir, err := os.MkdirTemp(outDir, "journal-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	j, err := campaign.OpenJournal(filepath.Join(dir, "records.jsonl"), "bench", 0)
	if err != nil {
		return 0, err
	}
	sp := tr.begin("campaign.journal")
	t := time.Now()
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			j.Close()
			return 0, err
		}
	}
	d := time.Since(t)
	tr.end(sp)
	if err := j.Close(); err != nil {
		return 0, err
	}
	return float64(d.Nanoseconds()) / 1e3 / float64(len(recs)), nil
}

// timeArrayNew times array.New for every distinct array configuration the
// workload runs, three calls each, and returns the median microseconds.
func timeArrayNew(tr *tracer, in *input) (float64, error) {
	cfgs := map[string]array.Config{}
	add := func(c core.Config) {
		cfgs[fmt.Sprintf("%v/%d/%v/%d", c.Org, c.N, c.Cached, c.CacheMB)] = arrayConfigOf(c)
	}
	for _, r := range in.runs {
		add(r.cfg)
	}
	for _, p := range in.points {
		add(p.Config)
	}
	sp := tr.begin("array.new")
	defer tr.end(sp)
	var us []float64
	for i := 0; i < 3; i++ {
		for _, ac := range cfgs {
			t := time.Now()
			if _, err := array.New(sim.New(), ac); err != nil {
				return 0, err
			}
			us = append(us, float64(time.Since(t).Nanoseconds())/1e3)
		}
	}
	return quantile(us, 0.5), nil
}

// runLadder replays array 0's sub-trace through the workload's ladder and
// stores each layer's marginal host cost in m: the median of
// rungRepeats timings of its rung minus that of its base rung.
func runLadder(tr *tracer, w *workloadDef, in *input, smoke bool, m map[string]float64) (map[string]float64, error) {
	base := core.DefaultConfig(w.ladderOrg)
	if len(in.runs) > 0 {
		for _, r := range in.runs {
			if r.cfg.Org == w.ladderOrg {
				base = r.cfg
			}
		}
	} else {
		base.Cached, base.Workers = true, workers
	}
	std, err := telemetryConfig()
	if err != nil {
		return nil, err
	}
	subs, err := in.tr.SplitByGroup(base.N)
	if err != nil {
		return nil, err
	}
	l := &ladder{sub: subs[0].Truncate(ladderRecords), org: w.ladderOrg, closed: in.closed, base: base, std: std, minT: rungMinTime}
	if smoke {
		l.minT = 0
	}

	sp := tr.begin("ladder")
	defer tr.end(sp)
	list, baseOf := rungs(w.uses)
	samples := map[string][]rungStat{}
	for round := 0; round < rungRepeats; round++ {
		for _, r := range list {
			rs := tr.begin("ladder/" + r.name)
			st, err := l.timeRung(r)
			tr.end(rs)
			if err != nil {
				return nil, err
			}
			samples[r.name] = append(samples[r.name], st)
		}
	}
	stats := map[string]rungStat{}
	out := map[string]float64{}
	for name, ss := range samples {
		var ns, nsEv, bytes []float64
		for _, s := range ss {
			ns, nsEv, bytes = append(ns, s.nsPerReq), append(nsEv, s.nsPerEvent), append(bytes, s.bytesPerReq)
		}
		stats[name] = rungStat{quantile(ns, 0.5), quantile(nsEv, 0.5), quantile(bytes, 0.5)}
		out[name] = stats[name].nsPerReq
	}
	marginal := func(name string) float64 { return stats[name].nsPerReq - stats[baseOf[name]].nsPerReq }
	m["sim.ns_per_event"] = stats["sim"].nsPerEvent
	m["disk.ns_per_req"] = marginal("disk")
	m["array.ns_per_req"] = marginal("array")
	m["cache.ns_per_req"] = marginal("cache")
	m["array.robust_ns_per_req"] = marginal("array.robust")
	m["fault.ns_per_req"] = marginal("fault")
	m["obs.ns_per_req"] = marginal("obs")
	m["obs.spans_ns_per_req"] = marginal("obs.spans")
	m["obs.bytes_per_req"] = stats["obs"].bytesPerReq - stats[baseOf["obs"]].bytesPerReq
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tracer keeps the benchmark's spans in memory. A nil tracer records
// nothing, so untraced passes share the traced code path.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span indexes
}

type span struct {
	name       string
	parent     int // index of the enclosing span, -1 for a root
	start, end time.Duration
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.t0)})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].end = time.Since(t.t0)
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover.
func (t *tracer) selfTimes() []time.Duration {
	kids := make([][]span, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return ks[a].start < ks[b].start })
		covered, reach := time.Duration(0), s.start
		for _, k := range ks {
			from, to := max(k.start, reach), min(k.end, s.end)
			if to > from {
				covered += to - from
				reach = to
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

func (t *tracer) summaries() []spanSummary {
	self := t.selfTimes()
	out := make([]spanSummary, len(t.spans))
	for i, s := range t.spans {
		out[i] = spanSummary{s.name, ms(s.end - s.start), ms(self[i])}
	}
	return out
}

// chromeTrace is the Chrome trace-event format Perfetto and
// chrome://tracing open.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chrome renders the spans as complete ("X") events of one process named
// after the workload; args carry each span's id, parent id and self time.
func (t *tracer) chrome(pid int, process string) chromeTrace {
	self := t.selfTimes()
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	ct := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{
		{Name: "process_name", Ph: "M", Pid: pid, Tid: 1, Args: map[string]any{"name": process}},
	}}
	for i, s := range t.spans {
		ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
			Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start), Pid: pid, Tid: 1,
			Args: map[string]any{"id": i, "parent": s.parent, "self_us": us(self[i])},
		})
	}
	return ct
}
