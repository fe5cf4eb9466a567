package shard

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestMapStatsCoversEveryIndexOnce: exactly-once execution regardless of
// who claims an index, for a spread of worker counts.
func TestMapStatsCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 7, 16, 200} {
		const n = 103
		var hits [n]atomic.Int32
		stats := MapStats(workers, n, func(_, i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Errorf("workers=%d: index %d executed %d times", workers, i, got)
			}
		}
		tasks := 0
		for _, st := range stats {
			tasks += st.Tasks
		}
		if tasks != n {
			t.Errorf("workers=%d: worker tasks sum to %d, want %d", workers, tasks, n)
		}
	}
}

// TestMapStatsWorkerIDs: fn's worker argument matches the stats row that
// accounts for the task.
func TestMapStatsWorkerIDs(t *testing.T) {
	const n = 64
	var byWorker [8]atomic.Int32
	stats := MapStats(8, n, func(w, _ int) { byWorker[w].Add(1) })
	if len(stats) != 8 {
		t.Fatalf("got %d stats rows, want 8", len(stats))
	}
	for w, st := range stats {
		if st.Worker != w {
			t.Errorf("stats[%d].Worker = %d", w, st.Worker)
		}
		if got := int(byWorker[w].Load()); got != st.Tasks {
			t.Errorf("worker %d: fn saw %d tasks, stats claim %d", w, got, st.Tasks)
		}
	}
}

// TestMapStatsStealing pins the stealing behavior: worker 0 blocks on its
// first task until everything else is done, so the rest of its stride
// must be stolen by other workers.
func TestMapStatsStealing(t *testing.T) {
	const workers, n = 2, 20
	release := make(chan struct{})
	idx0 := make(chan struct{})
	var others atomic.Int32
	stats := MapStats(workers, n, func(w, i int) {
		if i == 0 {
			close(idx0) // worker 0 holds index 0...
			<-release   // ...until everything else is done
			return
		}
		if i == 1 {
			<-idx0 // worker 1's first task waits for index 0 to be claimed
		}
		if others.Add(1) == n-1 {
			close(release) // all other tasks done: unblock
		}
	})
	total, steals := 0, 0
	for _, st := range stats {
		total += st.Tasks
		steals += st.Steals
	}
	if total != n {
		t.Fatalf("tasks sum %d, want %d", total, n)
	}
	// Worker 0 ran only index 0; its remaining 9 stride slots were stolen.
	if stats[0].Tasks != 1 {
		t.Errorf("worker 0 ran %d tasks, want 1", stats[0].Tasks)
	}
	if stats[1].Steals != 9 {
		t.Errorf("worker 1 stole %d tasks, want 9", stats[1].Steals)
	}
	if steals != 9 {
		t.Errorf("total steals %d, want 9", steals)
	}
}

// TestMapStatsBusyTime: busy time covers fn execution.
func TestMapStatsBusyTime(t *testing.T) {
	stats := MapStats(1, 3, func(_, _ int) { time.Sleep(2 * time.Millisecond) })
	if stats[0].Busy < 6*time.Millisecond {
		t.Errorf("busy %v, want >= 6ms", stats[0].Busy)
	}
}

// TestMapStatsReductionIsWorkerCountIndependent exercises the package's
// determinism contract: index-addressed slots reduced in order give bit-identical results for
// any worker count.
func TestMapStatsReductionIsWorkerCountIndependent(t *testing.T) {
	const n = 100
	reduce := func(workers int) float64 {
		slots := make([]float64, n)
		MapStats(workers, n, func(_, i int) { slots[i] = 1.0 / float64(i+1) })
		sum := 0.0
		for _, v := range slots {
			sum += v
		}
		return sum
	}
	want := reduce(1)
	for _, workers := range []int{2, 4, 8} {
		if got := reduce(workers); got != want {
			t.Errorf("workers=%d: sum %x differs from serial %x", workers, got, want)
		}
	}
}

// TestMapStatsEmpty: n<=0 returns nil and never calls fn.
func TestMapStatsEmpty(t *testing.T) {
	called := false
	if st := MapStats(4, 0, func(_, _ int) { called = true }); st != nil || called {
		t.Errorf("n=0: stats=%v called=%v", st, called)
	}
	if st := MapStats(4, -3, func(_, _ int) { called = true }); st != nil || called {
		t.Errorf("n<0: stats=%v called=%v", st, called)
	}
}
