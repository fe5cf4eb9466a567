package shard

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// WorkerStats is one pool worker's accounting from a MapStats call:
// tasks it executed, how many of those came from another worker's
// stride (steals), and host time spent inside fn.
type WorkerStats struct {
	Worker int
	Tasks  int
	Steals int
	Busy   time.Duration
}

// Workers returns the width of the pool MapStats runs n tasks on:
// workers, or GOMAXPROCS when workers <= 0, and never more than n.
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, n)
}

// MapStats runs fn(worker, i) for every i in [0, n) on a pool of
// Workers(workers, n) goroutines and returns when every call has
// completed, with per-worker occupancy accounting.
// Each worker owns the stride {w, w+workers, w+2·workers, ...}; a
// worker that drains its own stride scans the claim array for unclaimed
// indexes and steals them, so a worker stuck on one long run (an
// overloaded config simulating for minutes) cannot strand the rest of
// its stride while others sit idle.
// Every index is claimed exactly once through a CAS, fn receives
// (worker, i), and the package's determinism contract applies: fn
// writes index-addressed slots, reductions happen in index order after
// return, so results never depend on the worker count — only the
// WorkerStats do.
func MapStats(workers, n int, fn func(worker, i int)) []WorkerStats {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers, n)
	stats := make([]WorkerStats, workers)
	claimed := make([]atomic.Bool, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := &stats[w]
			st.Worker = w
			run := func(i int, stolen bool) {
				t0 := time.Now()
				fn(w, i)
				st.Busy += time.Since(t0)
				st.Tasks++
				if stolen {
					st.Steals++
				}
			}
			// Own stride first.
			for i := w; i < n; i += workers {
				if claimed[i].CompareAndSwap(false, true) {
					run(i, false)
				}
			}
			// Stride drained: steal whatever is still unclaimed.
			for i := 0; i < n; i++ {
				if claimed[i].CompareAndSwap(false, true) {
					run(i, true)
				}
			}
		}(w)
	}
	wg.Wait()
	return stats
}
