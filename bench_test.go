// Benchmarks: one per table/figure of the paper (exercising exactly the
// configuration that experiment sweeps, at reduced trace scale so `go
// test -bench` completes quickly), plus micro-benchmarks of the hot
// substrate paths. Mean response time is attached to each figure bench as
// a custom metric (ms/resp) so benchmark runs double as a coarse
// regression check on simulation results.
//
// Regenerate the full figures with: go run ./cmd/experiments -all
package raidsim_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"raidsim/internal/array"
	"raidsim/internal/cache"
	"raidsim/internal/campaign"
	"raidsim/internal/core"
	"raidsim/internal/disk"
	"raidsim/internal/exp"
	"raidsim/internal/fault"
	"raidsim/internal/geom"
	"raidsim/internal/layout"
	"raidsim/internal/obs"
	"raidsim/internal/reliability"
	"raidsim/internal/rng"
	"raidsim/internal/sim"
	"raidsim/internal/trace"
	"raidsim/internal/workload"
)

// benchTraces caches the scaled-down benchmark workloads.
var benchTraces = struct {
	sync.Mutex
	m map[string]*trace.Trace
}{m: map[string]*trace.Trace{}}

func benchTrace(b *testing.B, name string, speed float64) *trace.Trace {
	b.Helper()
	key := name + string(rune('0'+int(speed*10)))
	benchTraces.Lock()
	defer benchTraces.Unlock()
	if t, ok := benchTraces.m[key]; ok {
		return t
	}
	var p workload.Profile
	switch name {
	case "trace1":
		p = workload.Trace1Profile().Scaled(0.004)
	case "trace2":
		p = workload.Trace2Profile().Scaled(0.2)
	default:
		b.Fatalf("unknown trace %q", name)
	}
	t, err := workload.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	if speed != 1 {
		if t, err = t.Scale(speed); err != nil {
			b.Fatal(err)
		}
	}
	benchTraces.m[key] = t
	return t
}

// runBench executes the configuration against the trace b.N times and
// reports the measured mean response time.
func runBench(b *testing.B, cfg core.Config, tr *trace.Trace) {
	b.Helper()
	cfg.Spec = geom.Default()
	cfg.DataDisks = tr.NumDisks
	cfg.Seed = 1
	var last *core.Results
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Run(cfg, tr)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	b.ReportMetric(last.MeanResponseMS(), "ms/resp")
	b.ReportMetric(float64(last.Events)/float64(len(tr.Records)), "events/req")
}

// --- Table 1: the disk model itself ------------------------------------

func BenchmarkTable1SeekCalibration(b *testing.B) {
	spec := geom.Default()
	for i := 0; i < b.N; i++ {
		if _, err := geom.CalibrateSeek(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 2: trace generation -----------------------------------------

func BenchmarkTable2TraceGeneration(b *testing.B) {
	p := workload.Trace2Profile().Scaled(0.2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := workload.Generate(p); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 4: synchronization policies --------------------------------

func BenchmarkFig4SyncSI(b *testing.B) {
	runBench(b, core.Config{Org: array.OrgRAID5, N: 10, Sync: array.SI}, benchTrace(b, "trace2", 1))
}

func BenchmarkFig4SyncDFPR(b *testing.B) {
	runBench(b, core.Config{Org: array.OrgRAID5, N: 10, Sync: array.DFPR}, benchTrace(b, "trace2", 1))
}

// --- Figure 5: organizations, non-cached -------------------------------

func BenchmarkFig5Base(b *testing.B) {
	runBench(b, core.Config{Org: array.OrgBase, N: 10}, benchTrace(b, "trace1", 1))
}

func BenchmarkFig5Mirror(b *testing.B) {
	runBench(b, core.Config{Org: array.OrgMirror, N: 10}, benchTrace(b, "trace1", 1))
}

func BenchmarkFig5RAID5(b *testing.B) {
	runBench(b, core.Config{Org: array.OrgRAID5, N: 10, Sync: array.DF}, benchTrace(b, "trace1", 1))
}

func BenchmarkFig5ParityStriping(b *testing.B) {
	runBench(b, core.Config{Org: array.OrgParityStriping, N: 10, Sync: array.DF}, benchTrace(b, "trace1", 1))
}

// --- Figures 6/7: access distributions (trace analysis path) -----------

func BenchmarkFig6Characterize(b *testing.B) {
	tr := benchTrace(b, "trace1", 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := trace.Characterize(tr)
		if c.Accesses == 0 {
			b.Fatal("empty characterization")
		}
	}
}

// --- Figure 8/14: striping unit ----------------------------------------

func BenchmarkFig8StripingUnit8(b *testing.B) {
	runBench(b, core.Config{Org: array.OrgRAID5, N: 10, StripingUnit: 8, Sync: array.DF},
		benchTrace(b, "trace2", 1))
}

func BenchmarkFig14CachedStripingUnit16(b *testing.B) {
	runBench(b, core.Config{Org: array.OrgRAID5, N: 10, StripingUnit: 16, Sync: array.DF,
		Cached: true, CacheMB: 16}, benchTrace(b, "trace2", 1))
}

// --- Figure 9: parity placement ----------------------------------------

func BenchmarkFig9PlacementEnd(b *testing.B) {
	runBench(b, core.Config{Org: array.OrgParityStriping, N: 5, Sync: array.DF,
		Placement: layout.EndPlacement}, benchTrace(b, "trace2", 1))
}

// --- Figure 10/18: trace speed -----------------------------------------

func BenchmarkFig10DoubleSpeedRAID5(b *testing.B) {
	runBench(b, core.Config{Org: array.OrgRAID5, N: 10, Sync: array.DF}, benchTrace(b, "trace2", 2))
}

func BenchmarkFig18DoubleSpeedRAID4Cached(b *testing.B) {
	runBench(b, core.Config{Org: array.OrgRAID4, N: 10, Sync: array.DF,
		Cached: true, CacheMB: 16}, benchTrace(b, "trace2", 2))
}

// --- Figures 11/12: cached organizations -------------------------------

func BenchmarkFig11CachedBase64MB(b *testing.B) {
	runBench(b, core.Config{Org: array.OrgBase, N: 10, Cached: true, CacheMB: 64},
		benchTrace(b, "trace2", 1))
}

func BenchmarkFig12CachedRAID5(b *testing.B) {
	runBench(b, core.Config{Org: array.OrgRAID5, N: 10, Sync: array.DF,
		Cached: true, CacheMB: 16}, benchTrace(b, "trace2", 1))
}

// --- Figure 13/17: array size under fixed total cache ------------------

func BenchmarkFig13N5Cache8MB(b *testing.B) {
	runBench(b, core.Config{Org: array.OrgRAID5, N: 5, Sync: array.DF,
		Cached: true, CacheMB: 8}, benchTrace(b, "trace2", 1))
}

func BenchmarkFig17N20RAID4(b *testing.B) {
	runBench(b, core.Config{Org: array.OrgRAID4, N: 20, Sync: array.DF,
		Cached: true, CacheMB: 32}, benchTrace(b, "trace2", 1))
}

// --- Figures 15/16/19: RAID4 parity caching ----------------------------

func BenchmarkFig16RAID4ParityCaching(b *testing.B) {
	runBench(b, core.Config{Org: array.OrgRAID4, N: 10, Sync: array.DF,
		Cached: true, CacheMB: 16}, benchTrace(b, "trace2", 1))
}

func BenchmarkFig19RAID4StripingUnit4(b *testing.B) {
	runBench(b, core.Config{Org: array.OrgRAID4, N: 10, StripingUnit: 4, Sync: array.DF,
		Cached: true, CacheMB: 16}, benchTrace(b, "trace2", 1))
}

// --- Ablations and extensions ------------------------------------------

func BenchmarkAblatePureLRUWriteback(b *testing.B) {
	runBench(b, core.Config{Org: array.OrgRAID5, N: 10, Sync: array.DF,
		Cached: true, CacheMB: 16, PureLRUWriteback: true}, benchTrace(b, "trace2", 1))
}

func BenchmarkAblateFineGrainedParityStriping(b *testing.B) {
	runBench(b, core.Config{Org: array.OrgParityStriping, N: 10, Sync: array.DF,
		ParityStripeUnit: 256}, benchTrace(b, "trace2", 1))
}

func BenchmarkExtDegradedArray(b *testing.B) {
	runBench(b, core.Config{Org: array.OrgRAID5, N: 10, Sync: array.DF,
		Fault: fault.Config{DiskFails: []fault.DiskFail{{Disk: 0, At: 0}}}},
		benchTrace(b, "trace2", 1))
}

func BenchmarkExtMTTDL(b *testing.B) {
	p := reliability.Params{DiskMTTFHours: 100000, MTTRHours: 24}
	for i := 0; i < b.N; i++ {
		if reliability.ArrayFarmMTTDLHours(p, 10, 13) <= 0 {
			b.Fatal("bad MTTDL")
		}
	}
}

// --- Experiment harness end-to-end -------------------------------------

func BenchmarkExperimentTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		ctx, err := exp.NewContext(exp.Options{Scale: 0.01, Out: &buf})
		if err != nil {
			b.Fatal(err)
		}
		e, err := exp.Get("table2")
		if err != nil {
			b.Fatal(err)
		}
		if err := e.Run(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtParityLogging(b *testing.B) {
	runBench(b, core.Config{Org: array.OrgParityLog, N: 10, Sync: array.DF}, benchTrace(b, "trace2", 1))
}

func BenchmarkExtRAID0(b *testing.B) {
	runBench(b, core.Config{Org: array.OrgRAID0, N: 10}, benchTrace(b, "trace2", 1))
}

func BenchmarkExtRAID3(b *testing.B) {
	runBench(b, core.Config{Org: array.OrgRAID3, N: 10}, benchTrace(b, "trace2", 1))
}

// --- Controller Submit hot path ----------------------------------------

// BenchmarkCampaign measures the fleet campaign runner end to end: a
// 4-organization x 4-seed grid (16 runs) per iteration, sharded over 1
// worker vs GOMAXPROCS-bounded pools; the benchmark's fleet-grid
// workload (bench/) is the end-to-end measure. Worker count never
// changes results (TestWorkerCountInvariance pins that); only
// wall-clock should move.
func BenchmarkCampaign(b *testing.B) {
	spec := campaign.Spec{
		Name:  "bench",
		Scale: 0.02,
		Orgs:  []string{"base", "mirror", "raid5", "pstripe"},
		N:     []int{5},
		Seeds: 4,
		Seed:  1,
	}
	points, err := spec.Points()
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var runs, events uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := campaign.Execute(points, campaign.Options{Workers: workers, SelfMetrics: true})
				if err != nil {
					b.Fatal(err)
				}
				if failed := out.Failed(); len(failed) > 0 {
					b.Fatal(failed)
				}
				runs += uint64(out.Executed)
				events += out.Events
			}
			b.StopTimer()
			sec := b.Elapsed().Seconds()
			if sec > 0 {
				b.ReportMetric(float64(runs)/sec, "runs/s")
				b.ReportMetric(float64(events)/sec, "events/s")
			}
		})
	}
}

// BenchmarkArraySubmit drives one array controller's Submit path per
// organization with a mixed 30%-write workload, one request per
// iteration (benchstat-friendly: compare runs with
// `benchstat old.txt new.txt`). The *Obs variants run the same work with
// a windowed observability recorder armed; the *Spans variants
// additionally arm the per-request span tracer; the *Robust variants
// arm deadlines and retries, and raid10Hedged hedged reads too; the
// *Meter variants arm the engine self-meter. Each gap to the matching plain/Obs run is that
// layer's overhead budget (≤5% for obs, ≤1% for the meter). These are
// micro-benchmarks for profiling one layer; performance claims use the
// workloads of bench/ (see bench/README.md and BENCHMARK.json).
// TestSubmitAllocBudgets in internal/array pins this path's steady-state
// allocations at 0 per request.
func BenchmarkArraySubmit(b *testing.B) {
	points := []struct {
		name   string
		org    array.Org
		cached bool
		obs    bool
		spans  bool
		robust bool
		hedge  float64 // HedgeQuantile, with robust
		meter  bool
	}{
		{name: "base", org: array.OrgBase},
		{name: "mirror", org: array.OrgMirror},
		{name: "raid10", org: array.OrgRAID10},
		{name: "raid5", org: array.OrgRAID5},
		{name: "pstripe", org: array.OrgParityStriping},
		{name: "raid5cached", org: array.OrgRAID5, cached: true},
		{name: "raid4cached", org: array.OrgRAID4, cached: true},
		{name: "raid5Obs", org: array.OrgRAID5, obs: true},
		{name: "raid5cachedObs", org: array.OrgRAID5, cached: true, obs: true},
		{name: "raid5Spans", org: array.OrgRAID5, obs: true, spans: true},
		{name: "raid5cachedSpans", org: array.OrgRAID5, cached: true, obs: true, spans: true},
		{name: "raid5Robust", org: array.OrgRAID5, robust: true},
		{name: "raid5cachedRobust", org: array.OrgRAID5, cached: true, robust: true},
		{name: "raid10Hedged", org: array.OrgRAID10, robust: true, hedge: 0.95},
		{name: "raid5Meter", org: array.OrgRAID5, meter: true},
		{name: "raid5cachedMeter", org: array.OrgRAID5, cached: true, meter: true},
	}
	for _, p := range points {
		b.Run(p.name, func(b *testing.B) {
			eng := sim.New()
			var rec *obs.Recorder
			if p.obs {
				oc := obs.Config{Window: sim.Second, Disks: 24}
				if p.spans {
					oc.SpanTopK = 8
				}
				rec = obs.NewRecorder(oc)
			}
			cfg := array.Config{
				Org: p.org, N: 10, Spec: geom.Default(), Sync: array.DF,
				Cached: p.cached, CacheBlocks: 4096, Seed: 1, Rec: rec,
			}
			if p.robust {
				// Deadline accounting plus an (idle, no transient errors)
				// retry budget: the robustness layer's always-on cost.
				// raid10Hedged adds quantile-hedged reads on the mirror pairs.
				cfg.Robust = array.RobustConfig{Deadline: 60 * sim.Millisecond, Retries: 2, HedgeQuantile: p.hedge}
			}
			ctrl, err := array.New(eng, cfg)
			if err != nil {
				b.Fatal(err)
			}
			src := rng.New(42)
			capacity := ctrl.DataBlocks()
			var meter *sim.Meter
			if p.meter {
				meter = eng.StartMeter(true)
			}
			// Closed loop: keep a fixed number of requests outstanding so
			// the per-iteration work stays steady instead of queues growing
			// without bound.
			const mpl = 8
			outstanding := 0
			onComplete := func() { outstanding-- } // one closure, not one per request
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for outstanding >= mpl {
					eng.RunFor(sim.Millisecond)
				}
				op := trace.Read
				if src.Bool(0.3) {
					op = trace.Write
				}
				outstanding++
				ctrl.Submit(array.Request{
					Op: op, LBA: src.Int63n(capacity - 8), Blocks: 1 + src.Intn(4),
					OnComplete: onComplete,
				})
			}
			for j := 0; j < 1000000 && !ctrl.Drained(); j++ {
				eng.RunFor(sim.Millisecond)
			}
			b.StopTimer()
			if meter != nil {
				if ms := meter.Stop(); ms.Events == 0 {
					b.Fatal("armed meter saw no events")
				}
			}
			if !ctrl.Drained() {
				b.Fatal("controller did not drain")
			}
		})
	}
}

// --- Substrate micro-benchmarks ----------------------------------------

func BenchmarkEventEngine(b *testing.B) {
	eng := sim.New()
	n := 0
	var fn func()
	fn = func() {
		n++
		if n < b.N {
			eng.After(1000, fn)
		}
	}
	b.ResetTimer()
	eng.After(1, fn)
	eng.Run()
}

func BenchmarkDiskService(b *testing.B) {
	eng := sim.New()
	spec := geom.Default()
	d, err := disk.New(eng, 0, spec, geom.MustCalibrateSeek(spec), 0.5)
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Submit(&disk.Request{
			StartBlock: src.Int63n(spec.BlocksPerDisk()),
			Blocks:     1,
			Priority:   disk.PriNormal,
		})
		eng.Run()
	}
}

func BenchmarkLayoutRAID5Map(b *testing.B) {
	lay := layout.NewRAID5(10, geom.Default().BlocksPerDisk(), 8)
	n := lay.DataBlocks()
	var sink layout.Loc
	for i := 0; i < b.N; i++ {
		sink = lay.Map(int64(i) % n)
	}
	_ = sink
}

func BenchmarkLayoutParityStripingParity(b *testing.B) {
	lay := layout.NewParityStriping(10, geom.Default().BlocksPerDisk(), layout.MiddlePlacement, 0)
	n := lay.DataBlocks()
	var sink layout.Loc
	for i := 0; i < b.N; i++ {
		sink = lay.Parity(int64(i) % n)
	}
	_ = sink
}

func BenchmarkCacheOps(b *testing.B) {
	c, err := cache.New(cache.Config{Blocks: 4096, KeepOldData: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lba := int64(i % 8192)
		if c.Touch(lba) {
			c.MarkDirty(lba)
			continue
		}
		if c.FreeSlots() == 0 {
			if v := c.Victim(); v != nil {
				if v.Dirty {
					c.BeginDestage(v.LBA)
					c.CompleteDestage(v.LBA)
				}
				c.Drop(v.LBA)
			}
		}
		c.Insert(lba, i%3 == 0)
	}
}

func BenchmarkTraceBinaryCodec(b *testing.B) {
	tr := benchTrace(b, "trace2", 1)
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, tr); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.ReadBinary(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}
