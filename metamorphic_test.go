package raidsim_test

import (
	"testing"

	"raidsim/internal/array"
	"raidsim/internal/core"
	"raidsim/internal/sim"
	"raidsim/internal/workload"
)

// TestMetamorphicRelations pins relations between runs that must hold
// without an oracle: each row is a set of configurations that, on the
// same read-only trace, must give the same results, or results that
// differ only as the row states. The trace is examples/workloads/
// oltp-single.json with its write fraction set to 0, at a fifth of its
// length, on one RAID5 array of 10 data disks. A last relation orders
// runs instead: LRU inclusion.
func TestMetamorphicRelations(t *testing.T) {
	spec, err := workload.LoadSpec("examples/workloads/oltp-single.json")
	if err != nil {
		t.Fatal(err)
	}
	spec.Clients[0].WriteFraction = 0
	tr, err := spec.Scaled(0.2).Generate()
	if err != nil {
		t.Fatal(err)
	}
	base := core.DefaultConfig(array.OrgRAID5)
	withSync := func(p array.SyncPolicy) core.Config {
		c := base
		c.Sync = p
		return c
	}
	withDestage := func(period sim.Time) core.Config {
		c := base
		c.Cached, c.DestagePeriod = true, period
		return c
	}
	rows := []struct {
		name string
		cfgs []core.Config
		// eventsOnly: the runs must differ in Events (the engine events
		// executed) and agree in everything else.
		eventsOnly bool
	}{
		{
			// The policies order a write's parity update; reads have none.
			name: "sync policies agree without writes",
			cfgs: []core.Config{withSync(array.SI), withSync(array.RF), withSync(array.RFPR), withSync(array.DF), withSync(array.DFPR)},
		},
		{
			// Without writes nothing is dirty: a shorter destage period
			// adds idle destage ticks and changes no response.
			name:       "destage period changes only events without writes",
			cfgs:       []core.Config{withDestage(250 * sim.Millisecond), withDestage(4 * sim.Second)},
			eventsOnly: true,
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var first *core.Results
			for i, cfg := range row.cfgs {
				res, err := core.Run(cfg, tr)
				if err != nil {
					t.Fatal(err)
				}
				if res.Requests == 0 {
					t.Fatalf("config %d completed no requests", i)
				}
				if i == 0 {
					first = res
					continue
				}
				if row.eventsOnly {
					if res.Events == first.Events {
						t.Errorf("config %d: events %d, want a different count from config 0", i, res.Events)
					}
					res.Events = first.Events
				}
				if got, want := fingerprint(res), fingerprint(first); got != want {
					t.Errorf("config %d differs from config 0\n got: %s\nwant: %s", i, got, want)
				}
			}
		})
	}
	t.Run("read hits never fall as the cache grows", func(t *testing.T) {
		// LRU inclusion: a larger LRU cache holds every block a smaller
		// one holds, so on a trace with no writes (and no reads issued
		// ahead of them) it hits at least as often. Without writes
		// nothing is dirty and no eviction waits on a write-back, so the cache
		// sees the same reference string at every size.
		spec.Clients[0].ReadBeforeWriteProb = 0
		tr, err := spec.Scaled(0.2).Generate()
		if err != nil {
			t.Fatal(err)
		}
		prev := int64(-1)
		for _, mb := range []int{1, 2, 4, 8, 16, 32, 64} {
			cfg := base
			cfg.Cached, cfg.CacheMB = true, mb
			res, err := core.Run(cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			if res.ReadMisses == 0 || res.WriteHits+res.WriteMisses != 0 {
				t.Fatalf("%d MB: %d read misses, %d writes; want a read-only run that misses", mb, res.ReadMisses, res.WriteHits+res.WriteMisses)
			}
			if res.ReadHits < prev {
				t.Errorf("%d MB cache: %d read hits, fewer than the %d of half its size", mb, res.ReadHits, prev)
			}
			prev = res.ReadHits
		}
	})
}
