package core

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"raidsim/internal/array"
	"raidsim/internal/fault"
	"raidsim/internal/obs"
	"raidsim/internal/sim"
	"raidsim/internal/workload"
)

// raceEnabled reports a -race build (set in race_test.go), under which
// sync.Pool drops a random quarter of what it is given.
var raceEnabled bool

// emptyPools drops everything the sync.Pools hold: a pooled item
// survives one collection in the pool's victim cache, not two.
func emptyPools() {
	runtime.GC()
	runtime.GC()
}

// TestRecycledStateIsInert: engines, feeders, NV caches and request
// records recycled from earlier runs leave no trace in a later run's
// results. Each configuration's reference runs on fresh state; the same
// configurations then run back to back at 1 and 2 workers, each on what
// the previous one released (a cache the NVRAM failure swapped out
// included), and again after the pools are emptied; last, all of them
// run at once on the shared pools. Only the fields normalize zeroes are
// excluded.
func TestRecycledStateIsInert(t *testing.T) {
	tr, err := workload.Generate(workload.Trace2Profile().Scaled(0.02))
	if err != nil {
		t.Fatal(err)
	}
	config := func(org array.Org, cacheMB int) Config {
		cfg := DefaultConfig(org)
		cfg.DataDisks, cfg.N, cfg.SelfMetrics = tr.NumDisks, 5, true
		if cacheMB > 0 {
			cfg.Cached, cfg.CacheMB = true, cacheMB
		}
		return cfg
	}
	failing := config(array.OrgRAID4, 64)
	failing.Fault.CacheFailAt = tr.Duration() / 2
	// raid10 with the telemetry-faults benchmark's layers: a traced
	// recorder, robustness, a disk failure with a spare and a sick disk.
	telemetry := config(array.OrgRAID10, 0)
	telemetry.Obs = obs.Config{Window: 10 * sim.Second, TraceCap: 4096, SpanTopK: 8}
	telemetry.Robust = array.RobustConfig{Deadline: 100 * sim.Millisecond, Retries: 2, HedgeQuantile: 0.95, ShedQueue: 64}
	telemetry.Fault.DiskFails = []fault.DiskFail{{Disk: 0, At: tr.Duration() / 4}}
	telemetry.Fault.SickDisks = []fault.SickDisk{{Disk: 3, At: tr.Duration() / 4, Until: tr.Duration() / 2, SlowFactor: 2, TransientRate: 0.01}}
	telemetry.Spares = 1
	seq := []Config{failing, config(array.OrgRAID5, 8), config(array.OrgMirror, 0), telemetry}

	run := func(cfg Config, workers int) *Results {
		t.Helper()
		cfg.Workers = workers
		res, err := Run(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		return normalize(res)
	}
	want := make([]*Results, len(seq))
	for i, cfg := range seq {
		emptyPools()
		want[i] = run(cfg, 1)
	}
	if want[0].Fault.CacheFailures == 0 {
		t.Fatal("the raid4 run's cache never failed")
	}
	if r := want[3]; r.Robust.Retries == 0 || r.Robust.Hedges == 0 || r.Fault.Rebuilds == 0 || len(r.TailSpans) == 0 {
		t.Fatalf("the raid10 run left a layer idle: %d retries, %d hedges, %d rebuilds, %d span trees",
			r.Robust.Retries, r.Robust.Hedges, r.Fault.Rebuilds, len(r.TailSpans))
	}
	check := func(what string, i int, got *Results) {
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("%s, %v cached=%v: results differ from a run on fresh state", what, seq[i].Org, seq[i].Cached)
		}
	}
	for pass, workers := range []int{1, 2, 1, 2} {
		if pass == 2 {
			emptyPools()
		}
		for i, cfg := range seq {
			check(fmt.Sprintf("pass %d at %d workers", pass, workers), i, run(cfg, workers))
		}
	}
	// Concurrent runs share the pools, as a campaign's workers do.
	got := make([]*Results, len(seq))
	var wg sync.WaitGroup
	for i, cfg := range seq {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg.Workers = 2
			res, err := Run(cfg, tr)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = normalize(res)
		}()
	}
	wg.Wait()
	for i := range seq {
		if got[i] != nil {
			check("concurrent", i, got[i])
		}
	}
}

// normalize zeroes what may differ between equal runs: the worker count,
// the engine meter's host-time fields, and the Call free list's split
// of acquisitions into hits and misses, which a warm engine shifts.
func normalize(res *Results) *Results {
	res.Config.Workers = 0
	e := &res.Engine
	e.WallNS, e.AllocBytes, e.Mallocs = 0, 0, 0
	e.CallHits, e.CallMisses = e.CallHits+e.CallMisses, 0
	return res
}

// TestRunReuseAllocBudget: back-to-back runs recycle the worker engine,
// the feeder, the NV cache and the request records instead of
// rebuilding them. Each fleet-grid-sized run over Trace 2 at scale 0.02
// (about 1,400 requests), cached raid5 at N=10 with a 64 MB cache and
// uncached base, raid5 and raid10, may allocate at most 64 KB once the
// pools are warm; rebuilding that state every run costs 150-280 KB.
func TestRunReuseAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool keeps too little under -race; CI's AllocBudget step runs this without it")
	}
	tr, err := workload.Generate(workload.Trace2Profile().Scaled(0.02))
	if err != nil {
		t.Fatal(err)
	}
	cachedRAID5 := DefaultConfig(array.OrgRAID5)
	cachedRAID5.Cached, cachedRAID5.CacheMB = true, 64
	cases := []struct {
		name string
		cfg  Config
	}{
		{"cached raid5", cachedRAID5},
		{"base", DefaultConfig(array.OrgBase)},
		{"raid5", DefaultConfig(array.OrgRAID5)},
		{"raid10", DefaultConfig(array.OrgRAID10)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.DataDisks, cfg.Workers = tr.NumDisks, 1
			run := func() {
				if _, err := Run(cfg, tr); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the pools
			const runs, budget = 20, 64 << 10
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				run()
			}
			runtime.ReadMemStats(&after)
			per := (after.TotalAlloc - before.TotalAlloc) / runs
			t.Logf("%d bytes, %d allocations per run", per, (after.Mallocs-before.Mallocs)/runs)
			if per > budget {
				t.Fatalf("a warm %s run allocates %d bytes, budget %d", tc.name, per, budget)
			}
		})
	}
}
