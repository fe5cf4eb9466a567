package core

import (
	"testing"

	"raidsim/internal/array"
	"raidsim/internal/geom"
	"raidsim/internal/sim"
	"raidsim/internal/trace"
	"raidsim/internal/workload"
)

func warmupTrace(t *testing.T) *trace.Trace {
	t.Helper()
	p := workload.Trace2Profile()
	p.Requests = 2500
	p.Duration = 120 * sim.Second
	tr, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestWarmupExcludesEarlyRequests(t *testing.T) {
	tr := warmupTrace(t)
	cfg := Config{
		Org: array.OrgBase, DataDisks: 10, N: 10,
		Spec: geom.Default(), Cached: true, CacheMB: 16, Seed: 3,
	}
	full, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Warmup = tr.Duration() / 2
	warm, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Resp.N() >= full.Resp.N() {
		t.Fatalf("warmup did not exclude samples: %d vs %d", warm.Resp.N(), full.Resp.N())
	}
	if warm.Resp.N() == 0 {
		t.Fatal("warmup excluded everything")
	}
	// Requests are all still simulated.
	if warm.Requests != full.Requests {
		t.Fatalf("warmup changed simulated request count: %d vs %d", warm.Requests, full.Requests)
	}
	// A warm cache hits more often than a cold-start average.
	if warm.ReadHitRatio() < full.ReadHitRatio() {
		t.Fatalf("steady-state hit ratio %.3f below cold-start-inclusive %.3f",
			warm.ReadHitRatio(), full.ReadHitRatio())
	}
}
