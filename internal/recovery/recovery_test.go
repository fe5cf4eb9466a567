// Package recovery_test checks the RAID5 degraded-mode and rebuild
// contract end to end, through core.Run with Fault.DiskFails, Spares,
// RebuildChunk and RebuildPause: the configuration ext-rebuild and
// examples/recovery run. The directory holds tests only; the behaviour
// lives on the array fault path (internal/array/fault.go), whose unit
// tests in failover_test.go check the same rules on a tiny drive.
package recovery_test

import (
	"testing"

	"raidsim/internal/array"
	"raidsim/internal/core"
	"raidsim/internal/fault"
	"raidsim/internal/geom"
	"raidsim/internal/layout"
	"raidsim/internal/rng"
	"raidsim/internal/sim"
	"raidsim/internal/trace"
)

// baseConfig is one healthy RAID5 array of N=4 data disks plus parity.
func baseConfig() core.Config {
	return core.Config{
		Org:          array.OrgRAID5,
		DataDisks:    4,
		N:            4,
		Spec:         geom.Default(),
		StripingUnit: 1,
		Seed:         3,
	}
}

// failed returns cfg with physical disk d dead from t=0.
func failed(cfg core.Config, d int) core.Config {
	cfg.Fault = fault.Config{DiskFails: []fault.DiskFail{{Disk: d, At: 0}}}
	return cfg
}

// newTrace wraps single-block records in a trace shaped for baseConfig.
func newTrace(recs []trace.Record) *trace.Trace {
	return &trace.Trace{
		Name:          "recovery",
		NumDisks:      4,
		BlocksPerDisk: geom.Default().BlocksPerDisk(),
		Records:       recs,
	}
}

// load is n uniformly addressed single-block requests, 5 ms apart, a
// writeFrac share of them writes.
func load(n int, writeFrac float64) *trace.Trace {
	src := rng.New(11)
	tr := newTrace(nil)
	capacity := int64(tr.NumDisks) * tr.BlocksPerDisk
	for i := 0; i < n; i++ {
		op := trace.Read
		if src.Bool(writeFrac) {
			op = trace.Write
		}
		tr.Records = append(tr.Records, trace.Record{
			At: sim.Time(i) * 5 * sim.Millisecond, Op: op, LBA: src.Int63n(capacity), Blocks: 1,
		})
	}
	return tr
}

// homedOn returns the first logical block baseConfig's layout maps to
// physical disk d.
func homedOn(t *testing.T, d int) int64 {
	t.Helper()
	cfg := baseConfig()
	lay := layout.NewRAID5(cfg.N, cfg.Spec.BlocksPerDisk(), cfg.StripingUnit)
	for l := int64(0); l < lay.DataBlocks(); l++ {
		if lay.Map(l).Disk == d {
			return l
		}
	}
	t.Fatalf("no block homed on disk %d", d)
	return 0
}

func run(t *testing.T, cfg core.Config, tr *trace.Trace) *core.Results {
	t.Helper()
	res, err := core.Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestHealthyHasNoDegradedOps(t *testing.T) {
	res := run(t, baseConfig(), load(500, 0.3))
	if res.DegradedResp.N() != 0 {
		t.Fatalf("healthy array recorded %d degraded ops", res.DegradedResp.N())
	}
	if res.Resp.N() != 500 {
		t.Fatalf("responses %d", res.Resp.N())
	}
}

func TestDegradedIsSlower(t *testing.T) {
	tr := load(800, 0.3)
	healthy := run(t, baseConfig(), tr)
	degraded := run(t, failed(baseConfig(), 0), tr)
	h, d := healthy.Resp.Mean(), degraded.Resp.Mean()
	if d <= h {
		t.Fatalf("degraded (%.2fms) not slower than healthy (%.2fms)", d, h)
	}
	if degraded.DegradedResp.N() == 0 {
		t.Fatal("no degraded operations recorded")
	}
}

func TestDegradedReadFansOut(t *testing.T) {
	cfg := failed(baseConfig(), 0)
	tr := newTrace([]trace.Record{{At: sim.Millisecond, Op: trace.Read, LBA: homedOn(t, 0), Blocks: 1}})
	res := run(t, cfg, tr)
	if res.DiskAccesses[0] != 0 {
		t.Fatal("failed disk was accessed")
	}
	var reads int64
	for _, n := range res.DiskAccesses {
		reads += n
	}
	// N-1 surviving members + parity = N reads.
	if reads != int64(cfg.N) {
		t.Fatalf("degraded read issued %d disk reads, want %d", reads, cfg.N)
	}
	if res.DegradedResp.N() != 1 {
		t.Fatalf("reconstructing read not counted degraded: %d", res.DegradedResp.N())
	}
}

func TestRebuildCompletesAndRestoresService(t *testing.T) {
	cfg := failed(baseConfig(), 1)
	cfg.Spares = 1
	cfg.RebuildChunk = 480
	// One read of a disk-1 block, long after the unloaded sweep ends.
	tr := newTrace([]trace.Record{{At: 30 * 60 * sim.Second, Op: trace.Read, LBA: homedOn(t, 1), Blocks: 1}})
	res := run(t, cfg, tr)
	f := res.Fault
	if f.Rebuilds != 1 || f.RebuildActive {
		t.Fatalf("rebuild never completed: %+v", f)
	}
	if f.RebuildTime <= 0 {
		t.Fatal("zero rebuild time")
	}
	// The spare took over slot 1: one write per chunk, then the read.
	wantChunks := (cfg.Spec.BlocksPerDisk() + int64(cfg.RebuildChunk) - 1) / int64(cfg.RebuildChunk)
	if res.DiskAccesses[1] != wantChunks+1 {
		t.Fatalf("slot 1 took %d accesses, want %d chunks + 1 read", res.DiskAccesses[1], wantChunks)
	}
	if res.DegradedResp.N() != 0 || res.NormalResp.N() != 1 {
		t.Fatalf("post-rebuild read not normal (normal %d, degraded %d)",
			res.NormalResp.N(), res.DegradedResp.N())
	}
}

func TestRebuildPauseThrottles(t *testing.T) {
	tr := newTrace([]trace.Record{{At: sim.Second, Op: trace.Read, LBA: 0, Blocks: 1}})
	times := map[string]sim.Time{}
	for _, tc := range []struct {
		name  string
		pause sim.Time
	}{{"fast", 0}, {"slow", 50 * sim.Millisecond}} {
		cfg := failed(baseConfig(), 0)
		cfg.Spares = 1
		cfg.RebuildChunk = 960
		cfg.RebuildPause = tc.pause
		res := run(t, cfg, tr)
		if res.Fault.Rebuilds != 1 {
			t.Fatalf("%s rebuild incomplete: %+v", tc.name, res.Fault)
		}
		times[tc.name] = res.Fault.RebuildTime
	}
	if times["slow"] <= times["fast"] {
		t.Fatalf("pause did not slow rebuild: %v", times)
	}
}

func TestConfigValidation(t *testing.T) {
	tr := load(10, 0)
	bad := baseConfig()
	bad.N = 1
	if _, err := core.Run(bad, tr); err == nil {
		t.Fatal("N=1 accepted")
	}
	if _, err := core.Run(failed(baseConfig(), 99), tr); err == nil {
		t.Fatal("bad failed disk accepted")
	}
}
