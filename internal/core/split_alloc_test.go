package core

import (
	"runtime"
	"testing"

	"raidsim/internal/array"
	"raidsim/internal/geom"
	"raidsim/internal/rng"
	"raidsim/internal/sim"
	"raidsim/internal/trace"
)

// TestRunSplitAllocBudget: handing each array its share of the trace
// costs at most 8 bytes per record. 130 data disks at N = 10 make 13
// arrays, the paper's Trace 1 system; going from 10K to 100K records may
// grow core.Run's total allocation by at most 8 B per added record. The
// records are single-block reads at random addresses, 2 ms apart, so
// the arrays' queues stay short and their buffers stop growing early: what
// the growth measures is the per-record cost of the split. Copying every
// 32-byte record into per-array sub-traces breaks the budget.
func TestRunSplitAllocBudget(t *testing.T) {
	cfg := Config{Org: array.OrgBase, DataDisks: 130, N: 10, Spec: geom.Default(), Seed: 1, Workers: 1}
	allocated := func(records int) uint64 {
		tr := &trace.Trace{Name: "uniform", NumDisks: cfg.DataDisks, BlocksPerDisk: cfg.Spec.BlocksPerDisk()}
		src := rng.New(7)
		space := int64(tr.NumDisks) * tr.BlocksPerDisk
		for i := 0; i < records; i++ {
			tr.Records = append(tr.Records, trace.Record{At: sim.Time(i) * 2 * sim.Millisecond, LBA: src.Int63n(space), Blocks: 1})
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := Run(cfg, tr); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := allocated(10000), allocated(100000)
	per := float64(int64(large)-int64(small)) / 90000
	t.Logf("%d B at 10K records, %d B at 100K: %.1f B per added record", small, large, per)
	if per > 8 {
		t.Fatalf("core.Run allocates %.1f B per added record, budget 8", per)
	}
}
