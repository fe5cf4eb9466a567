package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// TestSmoke runs every workload at smoke size (trace1 at scale 0.01,
// trace2 at x0.5 and x0.1, the seed=0 slice of the fleet grid, the
// diurnal day at TimeScale 96) and checks only what holds at any host
// speed: the golden fingerprints, the events-per-request ceilings, and
// the pool's time accounting.
func TestSmoke(t *testing.T) {
	g, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			in, err := w.setup(0, true)
			if err != nil {
				t.Fatal(err)
			}
			o, err := in.pass(nil, nil, t.TempDir(), nil)
			if err != nil {
				t.Fatal(err)
			}
			want := g.Smoke[w.name]
			if len(want) == 0 {
				t.Fatalf("golden.json has no smoke fingerprints for %s", w.name)
			}
			if n := o.failed(want); n > 0 {
				for k, fp := range want {
					if o.fps[k] != fp {
						t.Errorf("%s:\n got %s\nwant %s", k, o.fps[k], fp)
					}
				}
				t.Fatalf("%d of %d runs failed: %v", n, o.attempted, o.bad)
			}
			epr := float64(o.events) / float64(o.requests)
			if ceil := g.SmokeEvents[w.name]; epr > ceil {
				t.Errorf("events per request %v exceed the golden %v", epr, ceil)
			}
			if o.camp != nil {
				var sum float64
				for _, r := range o.camp.Records {
					sum += r.ElapsedMS
				}
				if limit := float64(len(o.camp.Workers)) * ms(o.camp.Elapsed); sum > limit {
					t.Errorf("runs took %v ms in total, more than %d workers x %v ms elapsed", sum, len(o.camp.Workers), ms(o.camp.Elapsed))
				}
				var busy time.Duration
				for _, ws := range o.camp.Workers {
					busy += ws.Busy
				}
				if occ := float64(busy) / (float64(len(o.camp.Workers)) * float64(o.camp.Elapsed)); occ > 1 {
					t.Errorf("pool occupancy %v > 1", occ)
				}
			}
		})
	}
}

// TestSpeedMeter checks a calibrated pass: it must reproduce the smoke
// fingerprints and scale both of its times by the same factor.
func TestSpeedMeter(t *testing.T) {
	g, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	w, err := findWorkload("fleet-grid")
	if err != nil {
		t.Fatal(err)
	}
	in, err := w.setup(0, true)
	if err != nil {
		t.Fatal(err)
	}
	sm := newSpeedMeter()
	o, err := in.pass(nil, nil, t.TempDir(), sm)
	if err != nil {
		t.Fatal(err)
	}
	if n := o.failed(g.Smoke[w.name]); n > 0 {
		t.Fatalf("%d runs failed: %v", n, o.bad)
	}
	factor := sm.refS / sm.hostS
	if !(factor > 0) || math.IsInf(factor, 0) {
		t.Fatalf("scale factor %v", factor)
	}
	if raw := (o.executeS + o.mergeS) * factor; math.Abs(o.simulateS-raw) > 1e-9*raw {
		t.Errorf("scaled simulate time %v, want %v", o.simulateS, raw)
	}
	if o.wallS < o.simulateS {
		t.Errorf("scaled wall time %v below scaled simulate time %v", o.wallS, o.simulateS)
	}
}

// TestTracedSmoke runs the traced path at smoke size and checks that it
// reports every per-layer metric as a finite number and writes a trace
// that parses.
func TestTracedSmoke(t *testing.T) {
	g, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"telemetry-faults", "closed-raid4"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		res, err := traced(w, 0, true, dir, g.Smoke[name])
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Errorf("%s: traced pass failed %d of %d runs", name, res.Failed, res.Attempted)
		}
		for _, d := range perLayer {
			v, ok := res.Metrics[d.name]
			if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: per-layer metric %s = %v, %v", name, d.name, v, ok)
			}
		}
		var ct chromeTrace
		if err := readJSON(dir+"/trace-"+name+".json", &ct); err != nil {
			t.Fatal(err)
		}
		if len(ct.TraceEvents) < 10 {
			t.Errorf("%s: trace has only %d events", name, len(ct.TraceEvents))
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json, which automated runs read, in
// step with the metric and workload definitions in this package.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, want %d", bj.RunSeconds, runSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d = %+v, want %s: %s", i, w, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || (m.Bound != nil) != bounded ||
				(bounded && *m.Bound != d.bound) {
				t.Errorf("%s %d = %+v, want %+v", kind, i, m, d)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
}

func TestVerdict(t *testing.T) {
	wall := defOf(endToEnd, "wall_s")
	rate := defOf(endToEnd, "req_per_s")
	parent := &metricStats{Median: 10, Q1: 9.9, Q3: 10.1, Samples: []float64{9.9, 10, 10.1}}
	single := &metricStats{Median: 10, Q1: 10, Q3: 10, Samples: []float64{10}}
	noisy := &metricStats{Median: 10, Q1: 7, Q3: 13, Samples: []float64{7, 10, 13}}
	for _, c := range []struct {
		d      metricDef
		parent *metricStats
		change *metricStats
		want   string
	}{
		{wall, parent, &metricStats{Median: 10.5}, "ok"},
		{wall, parent, &metricStats{Median: 10 * (1 + wall.bound) * 1.01}, "worse"},
		{wall, parent, &metricStats{Median: 5}, "ok"},
		{rate, parent, &metricStats{Median: 10 * (1 - rate.bound) * 0.99}, "worse"},
		{rate, parent, &metricStats{Median: 20}, "ok"},
		{wall, noisy, &metricStats{Median: 9, Samples: []float64{8, 9, 14}}, "unresolved"},
		{wall, noisy, &metricStats{Median: 5, Samples: []float64{4, 5, 6}}, "ok"},
		{wall, single, &metricStats{Median: 20, Samples: []float64{20}}, "unresolved"},
	} {
		if got := verdict(c.d, c.parent, c.change); got != c.want {
			t.Errorf("%s %v vs %v: %s, want %s", c.d.name, c.parent.Median, c.change.Median, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{name: "root", parent: -1, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 30},
		{name: "b", parent: 0, start: 40, end: 90},
		{name: "b1", parent: 2, start: 50, end: 60},
	}}
	want := []time.Duration{30, 20, 40, 10}
	for i, got := range tr.selfTimes() {
		if got != want[i] {
			t.Errorf("span %s self %v, want %v", tr.spans[i].name, got, want[i])
		}
	}
}
