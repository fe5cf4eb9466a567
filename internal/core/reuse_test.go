package core

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"raidsim/internal/array"
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

// TestRecycledStateIsInert: engines, feeders and NV caches recycled from
// earlier runs leave no trace in a later run's results. Each
// configuration's reference runs on fresh state; the same configurations
// then run back to back at 1 and 2 workers, each on what the previous
// one released (a cache the NVRAM failure swapped out included), and
// again after the pools are emptied; last, all three run at once on the
// shared pools. Only the fields normalize zeroes are excluded.
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
	seq := []Config{failing, config(array.OrgRAID5, 8), config(array.OrgMirror, 0)}

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
// the feeder and the NV cache instead of rebuilding them. One
// fleet-grid-sized run, cached raid5 at N=10 with a 64 MB cache over
// Trace 2 at scale 0.02 (about 1,400 requests), may allocate at most
// 300 KB once the pools are warm; rebuilding that state every run costs
// about 557 KB.
func TestRunReuseAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool keeps too little under -race; CI's AllocBudget step runs this without it")
	}
	tr, err := workload.Generate(workload.Trace2Profile().Scaled(0.02))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(array.OrgRAID5)
	cfg.DataDisks, cfg.Cached, cfg.CacheMB, cfg.Workers = tr.NumDisks, true, 64, 1
	run := func() {
		if _, err := Run(cfg, tr); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the pools
	const runs, budget = 20, 300 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes per run", per)
	if per > budget {
		t.Fatalf("a warm cached raid5 run allocates %d bytes, budget %d", per, budget)
	}
}
