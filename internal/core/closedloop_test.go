package core

import (
	"testing"

	"raidsim/internal/array"
	"raidsim/internal/geom"
	"raidsim/internal/sim"
	"raidsim/internal/trace"
	"raidsim/internal/workload"
)

func closedLoopTrace(t *testing.T) *trace.Trace {
	t.Helper()
	p := workload.Trace2Profile()
	p.Requests = 3000
	p.Duration = 150 * sim.Second
	tr, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestClosedLoopCompletesEveryRequest(t *testing.T) {
	tr := closedLoopTrace(t)
	cfg := Config{
		Org: array.OrgRAID5, DataDisks: 10, N: 10,
		Spec: geom.Default(), Sync: array.DF, Seed: 1,
	}
	res, err := RunClosedLoop(cfg, tr, ClosedLoopConfig{MPL: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != int64(len(tr.Records)) {
		t.Fatalf("completed %d of %d", res.Requests, len(tr.Records))
	}
	if res.Makespan <= 0 || res.Throughput() <= 0 {
		t.Fatalf("makespan %d throughput %f", res.Makespan, res.Throughput())
	}
}

func TestClosedLoopThroughputGrowsWithMPL(t *testing.T) {
	tr := closedLoopTrace(t)
	cfg := Config{
		Org: array.OrgRAID5, DataDisks: 10, N: 10,
		Spec: geom.Default(), Sync: array.DF, Seed: 1,
	}
	tp := func(mpl int) float64 {
		res, err := RunClosedLoop(cfg, tr, ClosedLoopConfig{MPL: mpl})
		if err != nil {
			t.Fatalf("mpl %d: %v", mpl, err)
		}
		return res.Throughput()
	}
	t1, t4, t16 := tp(1), tp(4), tp(16)
	if !(t1 < t4 && t4 < t16) {
		t.Fatalf("throughput not increasing with MPL: %f %f %f", t1, t4, t16)
	}
	// Response time rises with MPL (queueing).
	r1, _ := RunClosedLoop(cfg, tr, ClosedLoopConfig{MPL: 1})
	r16, _ := RunClosedLoop(cfg, tr, ClosedLoopConfig{MPL: 16})
	if r16.Resp.Mean() <= r1.Resp.Mean() {
		t.Fatalf("MPL=16 response (%.2f) should exceed MPL=1 (%.2f)",
			r16.Resp.Mean(), r1.Resp.Mean())
	}
}

func TestClosedLoopThinkTimeLowersThroughput(t *testing.T) {
	tr := closedLoopTrace(t)
	cfg := Config{
		Org: array.OrgBase, DataDisks: 10, N: 10,
		Spec: geom.Default(), Seed: 1,
	}
	fast, err := RunClosedLoop(cfg, tr, ClosedLoopConfig{MPL: 4})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := RunClosedLoop(cfg, tr, ClosedLoopConfig{MPL: 4, ThinkTime: 50 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if slow.Throughput() >= fast.Throughput() {
		t.Fatalf("think time did not lower throughput: %f vs %f",
			slow.Throughput(), fast.Throughput())
	}
}

func TestClosedLoopValidation(t *testing.T) {
	tr := closedLoopTrace(t)
	cfg := Config{Org: array.OrgBase, DataDisks: 10, N: 10, Spec: geom.Default()}
	if _, err := RunClosedLoop(cfg, tr, ClosedLoopConfig{MPL: 0}); err == nil {
		t.Fatal("MPL=0 accepted")
	}
	bad := cfg
	bad.DataDisks = 7
	if _, err := RunClosedLoop(bad, tr, ClosedLoopConfig{MPL: 2}); err == nil {
		t.Fatal("mismatched trace accepted")
	}
}

func TestClosedLoopRejectsMismatchedBlocksPerDisk(t *testing.T) {
	tr := closedLoopTrace(t)
	cfg := Config{Org: array.OrgBase, DataDisks: 10, N: 10, Spec: geom.Default()}
	bad := *tr
	bad.BlocksPerDisk = 1234
	if _, err := RunClosedLoop(cfg, &bad, ClosedLoopConfig{MPL: 2}); err == nil {
		t.Fatal("trace built for another disk model accepted")
	}
}

// TestClosedLoopSelfMetrics: closed-loop runs meter their arrays like
// open-loop runs do, and the meters account for every event.
func TestClosedLoopSelfMetrics(t *testing.T) {
	tr := closedLoopTrace(t)
	cfg := Config{
		Org: array.OrgRAID5, DataDisks: 10, N: 5,
		Spec: geom.Default(), Sync: array.DF, Seed: 1, SelfMetrics: true,
	}
	res, err := RunClosedLoop(cfg, tr, ClosedLoopConfig{MPL: 8, ThinkTime: sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if m := res.Engine; m.Events != res.Events || m.HeapHighWater <= 0 {
		t.Fatalf("meter events=%d heap_hw=%d, run executed %d events", m.Events, m.HeapHighWater, res.Events)
	}
}

// TestClosedLoopAllocBudget: closed-loop admission allocates nothing per
// request. Doubling a non-cached base array's request stream may add at
// most 0.05 allocations per extra request; what remains is per-run setup
// and amortized growth of result buffers. Each run starts with the pools
// emptied, so its setup is the same at both lengths: under -race a
// sync.Pool drops a random quarter of what it is given, and a run that
// lost its request records rebuilds them.
func TestClosedLoopAllocBudget(t *testing.T) {
	cfg := Config{Org: array.OrgBase, DataDisks: 10, N: 10, Spec: geom.Default(), Seed: 1, Workers: 1}
	allocs := func(requests int) float64 {
		p := workload.Trace2Profile()
		p.Requests = requests
		p.Duration = sim.Time(requests) * 50 * sim.Millisecond
		tr, err := workload.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			emptyPools()
			if _, err := RunClosedLoop(cfg, tr, ClosedLoopConfig{MPL: 8, ThinkTime: sim.Millisecond}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(2000), allocs(4000)
	t.Logf("%.0f allocs at 2000 requests, %.0f at 4000", small, large)
	if per := (large - small) / 2000; per > 0.05 {
		t.Fatalf("%.0f allocs at 2000 requests, %.0f at 4000: %.3f per extra request, budget 0.05", small, large, per)
	}
}
