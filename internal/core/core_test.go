package core

import (
	"strings"
	"testing"

	"raidsim/internal/array"
	"raidsim/internal/geom"
	"raidsim/internal/sim"
	"raidsim/internal/trace"
	"raidsim/internal/workload"
)

func TestConfigValidate(t *testing.T) {
	good := Config{Org: array.OrgBase, DataDisks: 10, N: 5, Spec: geom.Default()}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	// N > DataDisks is allowed: the paper stripes Trace 2's 10 disks of
	// data over arrays as wide as 21 drives.
	wide := Config{Org: array.OrgRAID5, DataDisks: 10, N: 20, Spec: geom.Default()}
	if err := wide.Validate(); err != nil {
		t.Errorf("wide array rejected: %v", err)
	}
	if wide.arrays() != 1 || wide.PhysicalDisks() != 21 {
		t.Errorf("wide array: %d arrays, %d disks", wide.arrays(), wide.PhysicalDisks())
	}
	bad := []Config{
		{Org: array.OrgBase, DataDisks: 0, N: 5, Spec: geom.Default()},
		{Org: array.OrgBase, DataDisks: 10, N: 1, Spec: geom.Default()},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
}

func TestArrayAndDiskCounts(t *testing.T) {
	cases := []struct {
		org      array.Org
		d, n     int
		arrays   int
		physical int
	}{
		{array.OrgBase, 130, 10, 13, 130},
		{array.OrgMirror, 130, 10, 13, 260},
		{array.OrgRAID5, 130, 5, 26, 156},  // paper: 26 arrays of 6 = 156
		{array.OrgRAID5, 130, 10, 13, 143}, // paper: 13 arrays of 11 = 143
		{array.OrgRAID5, 130, 20, 7, 137},  // 6 full arrays of 21 + (10+1)
		{array.OrgParityStriping, 10, 10, 1, 11},
	}
	for _, c := range cases {
		cfg := Config{Org: c.org, DataDisks: c.d, N: c.n, Spec: geom.Default()}
		if got := cfg.arrays(); got != c.arrays {
			t.Errorf("%v D=%d N=%d: arrays %d, want %d", c.org, c.d, c.n, got, c.arrays)
		}
		if got := cfg.PhysicalDisks(); got != c.physical {
			t.Errorf("%v D=%d N=%d: disks %d, want %d", c.org, c.d, c.n, got, c.physical)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	p := workload.Trace2Profile()
	p.Requests = 3000
	p.Duration = 150 * sim.Second
	tr, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Org: array.OrgRAID5, DataDisks: 10, N: 5, Spec: geom.Default(),
		Sync: array.DF, Seed: 99,
	}
	a, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if a.Resp.Mean() != b.Resp.Mean() || a.Events != b.Events {
		t.Fatalf("same seed diverged: %f/%d vs %f/%d",
			a.Resp.Mean(), a.Events, b.Resp.Mean(), b.Events)
	}
	cfg.Seed = 100
	c, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if a.Resp.Mean() == c.Resp.Mean() {
		t.Fatal("different seeds gave identical results (suspicious)")
	}
}

func TestRunRejectsMismatchedTrace(t *testing.T) {
	p := workload.Trace2Profile()
	p.Requests = 100
	p.Duration = 10 * sim.Second
	tr, _ := workload.Generate(p)
	cfg := Config{Org: array.OrgBase, DataDisks: 99, N: 9, Spec: geom.Default()}
	if _, err := Run(cfg, tr); err == nil {
		t.Fatal("disk-count mismatch accepted")
	}
	cfg = Config{Org: array.OrgBase, DataDisks: 10, N: 5, Spec: geom.Default()}
	tr2 := *tr
	tr2.BlocksPerDisk = 1234
	if _, err := Run(cfg, &tr2); err == nil {
		t.Fatal("blocks-per-disk mismatch accepted")
	}
}

// TestRunRejectsRecordOutsideSpace: a record that starts past the last
// logical block is an error naming the record, not a panic in the split;
// one that starts inside but runs past the end is clamped and served.
func TestRunRejectsRecordOutsideSpace(t *testing.T) {
	cfg := Config{Org: array.OrgRAID5, DataDisks: 20, N: 10, Spec: geom.Default(), Sync: array.DF}
	bpd := cfg.Spec.BlocksPerDisk()
	tr := &trace.Trace{
		Name: "edge", NumDisks: 20, BlocksPerDisk: bpd,
		Records: []trace.Record{
			{At: 0, Op: trace.Read, LBA: 5, Blocks: 1},
			{At: sim.Millisecond, Op: trace.Write, LBA: 20*bpd - 1, Blocks: 4},
		},
	}
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatalf("record running past the end should be clamped: %v", err)
	}
	if res.Requests != 2 {
		t.Fatalf("served %d requests, want 2", res.Requests)
	}
	for _, lba := range []int64{20 * bpd, -1} {
		tr.Records[1].LBA = lba
		_, err := Run(cfg, tr)
		if err == nil || !strings.Contains(err.Error(), `"edge"`) || !strings.Contains(err.Error(), "record 1") {
			t.Fatalf("LBA %d: got %v, want an error naming trace \"edge\" and record 1", lba, err)
		}
	}
}

func TestResultsAggregation(t *testing.T) {
	p := workload.Trace2Profile()
	p.Requests = 5000
	p.Duration = 250 * sim.Second
	tr, _ := workload.Generate(p)
	cfg := Config{
		Org: array.OrgRAID5, DataDisks: 10, N: 5, Spec: geom.Default(),
		Sync: array.DF, Seed: 5,
	}
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrays != 2 {
		t.Fatalf("arrays %d", res.Arrays)
	}
	if res.Requests != int64(len(tr.Records)) {
		t.Fatalf("requests %d, want %d", res.Requests, len(tr.Records))
	}
	if len(res.DiskAccesses) != 12 || len(res.DiskUtil) != 12 {
		t.Fatalf("per-disk slices: %d/%d, want 12 (2 arrays x 6 drives)",
			len(res.DiskAccesses), len(res.DiskUtil))
	}
	// Merged response summary must equal the concatenation of per-array
	// summaries.
	var n int64
	for _, pr := range res.PerArray {
		n += pr.Resp.N()
	}
	if n != res.Resp.N() {
		t.Fatalf("merged samples %d, parts %d", res.Resp.N(), n)
	}
	if res.Events == 0 {
		t.Fatal("no events counted")
	}
}

// TestMirrorBeatsBaseOnSkewedLoad pins the paper's headline ordering on
// the Trace 2-like workload: mirror < base, raid5 < base (skew), and
// parity striping worst among the parity organizations.
func TestOrgOrderingOnTrace2(t *testing.T) {
	p := workload.Trace2Profile().Scaled(0.3)
	tr, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	means := map[array.Org]float64{}
	for _, org := range []array.Org{array.OrgBase, array.OrgMirror, array.OrgRAID5, array.OrgParityStriping} {
		cfg := Config{
			Org: org, DataDisks: 10, N: 10, Spec: geom.Default(),
			Sync: array.DF, Seed: 2,
		}
		res, err := Run(cfg, tr)
		if err != nil {
			t.Fatalf("%v: %v", org, err)
		}
		means[org] = res.Resp.Mean()
	}
	if means[array.OrgMirror] >= means[array.OrgBase] {
		t.Errorf("mirror (%.2f) not better than base (%.2f)", means[array.OrgMirror], means[array.OrgBase])
	}
	if means[array.OrgRAID5] >= means[array.OrgBase] {
		t.Errorf("raid5 (%.2f) should beat base (%.2f) under Trace 2 skew", means[array.OrgRAID5], means[array.OrgBase])
	}
	if means[array.OrgRAID5] >= means[array.OrgParityStriping] {
		t.Errorf("raid5 (%.2f) should beat parity striping (%.2f)", means[array.OrgRAID5], means[array.OrgParityStriping])
	}
}

// TestCacheErasesWritePenalty pins the cached-organization conclusion: a
// 16 MB cache brings RAID5 close to Base.
func TestCacheErasesWritePenalty(t *testing.T) {
	p := workload.Trace2Profile().Scaled(0.3)
	tr, _ := workload.Generate(p)
	run := func(org array.Org, cached bool) float64 {
		cfg := Config{
			Org: org, DataDisks: 10, N: 10, Spec: geom.Default(),
			Sync: array.DF, Cached: cached, CacheMB: 16, Seed: 2,
		}
		res, err := Run(cfg, tr)
		if err != nil {
			t.Fatalf("%v: %v", org, err)
		}
		return res.WriteResp.Mean()
	}
	uncached := run(array.OrgRAID5, false)
	cached := run(array.OrgRAID5, true)
	if cached > uncached/5 {
		t.Errorf("cache left write response at %.2f ms (uncached %.2f)", cached, uncached)
	}
}

func TestResultsHitRatios(t *testing.T) {
	r := &Results{ReadHits: 3, ReadMisses: 1, WriteHits: 1, WriteMisses: 3}
	if r.ReadHitRatio() != 0.75 || r.WriteHitRatio() != 0.25 {
		t.Fatal("hit ratio math wrong")
	}
	empty := &Results{}
	if empty.ReadHitRatio() != 0 || empty.WriteHitRatio() != 0 {
		t.Fatal("empty ratios should be 0")
	}
}
