package array

import (
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"raidsim/internal/disk"
	"raidsim/internal/fault"
	"raidsim/internal/geom"
	"raidsim/internal/obs"
	"raidsim/internal/rng"
	"raidsim/internal/sim"
	"raidsim/internal/trace"
)

// commonOf returns the shared controller state behind a Controller.
func commonOf(t *testing.T, ctrl Controller) *common {
	t.Helper()
	switch c := ctrl.(type) {
	case *schemeCtrl:
		return c.common
	case *cachedCtrl:
		return c.common
	}
	t.Fatalf("no common state in %T", ctrl)
	return nil
}

// closedLoop returns a function that submits one request of 1-4 blocks
// at a random address, running the engine first until fewer than 8 are
// outstanding: a fixed number of requests in flight keeps every queue at
// its steady-state depth. Each request's op is *op at submission.
func closedLoop(eng *sim.Engine, ctrl Controller, op *trace.Op) func() {
	src := rng.New(42)
	capacity := ctrl.DataBlocks()
	const mpl = 8
	outstanding := 0
	onComplete := func() { outstanding-- }
	return func() {
		for outstanding >= mpl {
			eng.RunFor(sim.Millisecond)
		}
		outstanding++
		ctrl.Submit(Request{
			Op: *op, LBA: src.Int63n(capacity - 8), Blocks: 1 + src.Intn(4),
			OnComplete: onComplete,
		})
	}
}

// TestSubmitAllocBudgets pins the steady-state allocations of one
// request on warmed, closed-loop, non-cached controllers, in the style
// of BenchmarkArraySubmit. Allocation counts are the same on every host,
// so an allocation that creeps back into the request path fails here
// instead of hiding in timing noise.
func TestSubmitAllocBudgets(t *testing.T) {
	type tc struct {
		org  Org
		op   trace.Op
		sync SyncPolicy
	}
	var cases []tc
	for _, org := range []Org{OrgBase, OrgMirror, OrgRAID5, OrgParityStriping} {
		cases = append(cases, tc{org, trace.Read, DF})
		if org == OrgBase || org == OrgMirror {
			cases = append(cases, tc{org, trace.Write, DF})
			continue
		}
		for _, pol := range []SyncPolicy{SI, RF, RFPR, DF, DFPR} {
			cases = append(cases, tc{org, trace.Write, pol})
		}
	}
	for _, c := range cases {
		name := fmt.Sprintf("%v/%v", c.org, c.op)
		if c.op == trace.Write && (c.org == OrgRAID5 || c.org == OrgParityStriping) {
			name += "/" + c.sync.String()
		}
		t.Run(name, func(t *testing.T) {
			eng, ctrl := build(t, Config{
				Org: c.org, N: 10, Spec: geom.Default(), Sync: c.sync, Seed: 1,
			})
			submit := closedLoop(eng, ctrl, &c.op)
			for i := 0; i < 4000; i++ {
				submit()
			}
			if n := testing.AllocsPerRun(2000, submit); n != 0 {
				t.Errorf("%.0f allocations per request, want 0", n)
			}
			drain(t, eng, ctrl)
			if n := commonOf(t, ctrl).liveRecords(); n != 0 {
				t.Errorf("%d records still live after drain", n)
			}
		})
	}
}

// TestCachedSubmitAllocBudgets is TestSubmitAllocBudgets for the cache
// front-end: cached RAID5 and RAID4, reads and writes, closed loop at MPL
// 8 over a cache far smaller than the data. The run is long enough for
// destage ticks, dirty evictions and (RAID4) parity spooling to fire
// while allocations are counted, and every record must be back in its
// pool once the array drains.
func TestCachedSubmitAllocBudgets(t *testing.T) {
	for _, org := range []Org{OrgRAID5, OrgRAID4} {
		for _, op := range []trace.Op{trace.Read, trace.Write} {
			t.Run(fmt.Sprintf("%v/%v", org, op), func(t *testing.T) {
				eng, ctrl := build(t, Config{
					Org: org, N: 10, Spec: geom.Default(), Sync: DF, Seed: 1,
					Cached: true, CacheBlocks: 512,
				})
				// Warm up with writes so the measured phase starts from a
				// cache full of dirty blocks: reads then evict dirty
				// victims too.
				cur := trace.Write
				submit := closedLoop(eng, ctrl, &cur)
				for i := 0; i < 4000; i++ {
					submit()
				}
				cur = op
				before := ctrl.Results().Cache
				if n := testing.AllocsPerRun(2000, submit); n != 0 {
					t.Errorf("%.0f allocations per request, want 0", n)
				}
				after := ctrl.Results().Cache
				if after.Destages == before.Destages {
					t.Error("no destage completed while allocations were counted")
				}
				if after.DirtyEvictions == before.DirtyEvictions {
					t.Error("no dirty eviction while allocations were counted")
				}
				if org == OrgRAID4 && after.ParityQueued == before.ParityQueued {
					t.Error("no parity update spooled while allocations were counted")
				}
				// Drained covers requests only: let the destage batches
				// still in flight complete (a tick finds nothing new).
				drain(t, eng, ctrl)
				eng.RunFor(3 * sim.Second)
				if n := commonOf(t, ctrl).liveRecords(); n != 0 {
					t.Errorf("%d records still live after drain", n)
				}
			})
		}
	}
}

// TestRobustSubmitAllocBudgets is TestSubmitAllocBudgets with the
// robustness layer and span tracing armed: deadlines, retries, shedding
// and quantile-hedged reads on mirror and RAID1/0, and span trees on
// those and on RAID5. Hedges must be issued and lost while allocations
// are counted, so the pooled hedge records and their cancelled timers
// are exercised, and every record must be back in its pool after drain.
func TestRobustSubmitAllocBudgets(t *testing.T) {
	for _, org := range []Org{OrgMirror, OrgRAID10, OrgRAID5} {
		for _, op := range []trace.Op{trace.Read, trace.Write} {
			t.Run(fmt.Sprintf("%v/%v", org, op), func(t *testing.T) {
				eng, ctrl := build(t, Config{
					Org: org, N: 10, Spec: geom.Default(), Sync: DF, Seed: 1,
					Robust: RobustConfig{
						Deadline: 100 * sim.Millisecond, Retries: 2,
						HedgeQuantile: 0.95, HedgeAfter: 10 * sim.Millisecond, ShedQueue: 64,
					},
					Rec: obs.NewRecorder(obs.Config{SpanTopK: 8}),
				})
				c := commonOf(t, ctrl)
				submit := closedLoop(eng, ctrl, &op)
				for i := 0; i < 4000; i++ {
					submit()
				}
				hedges, losses := c.rb.hedges, c.rb.hedgeLosses
				if n := testing.AllocsPerRun(2000, submit); n != 0 {
					t.Errorf("%.0f allocations per request, want 0", n)
				}
				if org != OrgRAID5 && op == trace.Read {
					if c.rb.hedges == hedges || c.rb.hedgeLosses == losses {
						t.Errorf("hedges issued %d, lost %d while allocations were counted; want both",
							c.rb.hedges-hedges, c.rb.hedgeLosses-losses)
					}
				}
				drain(t, eng, ctrl)
				if n := c.liveRecords(); n != 0 {
					t.Errorf("%d records still live after drain", n)
				}
			})
		}
	}
}

// TestRecordsBalanceUnderFaults drives each failure path that detours a
// pooled record — drops, retries, hedges, reconstruction, rebuild — and
// checks that every record taken was returned once the run drained.
// A case with a drive function runs it instead of the request burst.
func TestRecordsBalanceUnderFaults(t *testing.T) {
	cases := []struct {
		name  string
		cfg   func() Config
		drive func(t *testing.T, eng *sim.Engine, c *common)
		check func(t *testing.T, c *common, reqs []Request)
	}{{
		name: "drop",
		cfg: func() Config {
			cfg := faultConfig(OrgRAID5, false)
			cfg.Fault = fault.Config{DiskFails: []fault.DiskFail{{Disk: 0, At: 150 * sim.Millisecond}}}
			return cfg
		},
		check: func(t *testing.T, c *common, _ []Request) {
			if c.disks[0].S.Dropped == 0 {
				t.Error("no queued access was dropped")
			}
		},
	}, {
		name: "sector-retry",
		cfg: func() Config {
			cfg := faultConfig(OrgRAID5, false)
			cfg.Fault = fault.Config{SectorErrorRate: 0.3, Seed: 3}
			return cfg
		},
		check: func(t *testing.T, c *common, _ []Request) {
			if c.fs.sectorRetries == 0 || c.fs.sectorReconstructs == 0 {
				t.Errorf("sector retries %d, reconstructs %d; want both", c.fs.sectorRetries, c.fs.sectorReconstructs)
			}
		},
	}, {
		name: "transient-backoff",
		cfg: func() Config {
			cfg := faultConfig(OrgRAID5, false)
			cfg.Fault = fault.Config{SickDisks: []fault.SickDisk{{Disk: 1, TransientRate: 0.3}}, Seed: 5}
			cfg.Robust = RobustConfig{Retries: 2}
			return cfg
		},
		check: func(t *testing.T, c *common, _ []Request) {
			if c.rb.retries == 0 || c.rb.retriesExhausted == 0 {
				t.Errorf("retries %d, exhausted %d; want both", c.rb.retries, c.rb.retriesExhausted)
			}
		},
	}, {
		name: "hedge",
		cfg: func() Config {
			cfg := faultConfig(OrgMirror, false)
			cfg.Robust = RobustConfig{HedgeAfter: 2 * sim.Millisecond}
			return cfg
		},
		check: func(t *testing.T, c *common, _ []Request) {
			if c.rb.hedgeWins == 0 || c.rb.hedgeLosses == 0 {
				t.Errorf("hedge wins %d, losses %d; want both", c.rb.hedgeWins, c.rb.hedgeLosses)
			}
		},
	}, {
		name: "hedge-quantile",
		cfg: func() Config {
			cfg := faultConfig(OrgRAID10, false)
			cfg.Robust = RobustConfig{HedgeQuantile: 0.9, HedgeAfter: 2 * sim.Millisecond}
			return cfg
		},
		check: func(t *testing.T, c *common, _ []Request) {
			if c.rb.readHist.N() < 32 {
				t.Errorf("%d read samples, too few to hedge on the quantile", c.rb.readHist.N())
			}
			if c.rb.hedgeWins == 0 || c.rb.hedgeLosses == 0 {
				t.Errorf("hedge wins %d, losses %d; want both", c.rb.hedgeWins, c.rb.hedgeLosses)
			}
		},
	}, {
		// Read 1's primary wins before its hedge timer; its continuation
		// issues read 2 at once, which takes the same hedge record and arms
		// a new timer while read 1's cancelled one is still queued. Read 2
		// is held on a hung drive past the cancelled timer's time: that
		// timer must not dispatch a hedge for the reused record. Read 2's
		// own timer then hedges it, and the hedge wins.
		name: "hedge-reuse",
		cfg: func() Config {
			cfg := faultConfig(OrgMirror, false)
			cfg.Robust = RobustConfig{HedgeAfter: 30 * sim.Millisecond}
			return cfg
		},
		drive: func(t *testing.T, eng *sim.Engine, c *common) {
			rn := run{disk: 0, start: 100, blocks: 1}
			t0 := eng.Now()
			var t1 sim.Time // read 2's issue
			done := 0
			read2 := func() { done++ }
			c.readRunHedged(rn, disk.PriNormal, nil, func() {
				done++
				t1 = eng.Now()
				reused := c.recs.hedges.free[len(c.recs.hedges.free)-1]
				c.disks[0].Hang(t1 + 60*sim.Millisecond)
				c.readRunHedged(rn, disk.PriNormal, nil, read2)
				if len(c.recs.hedges.free) != 0 || reused.onDone == nil {
					t.Fatal("read 2 did not take read 1's hedge record")
				}
			})
			eng.RunUntil(t0 + 29*sim.Millisecond)
			if done != 1 || c.rb.hedges != 0 {
				t.Fatalf("read 1 not won by its primary before its timer: %d reads done, %d hedges", done, c.rb.hedges)
			}
			// Past read 1's cancelled timer, before read 2's own.
			eng.RunUntil(t0 + 30*sim.Millisecond + (t1-t0)/2)
			if c.rb.hedges != 0 || done != 1 {
				t.Fatalf("%d hedges, %d reads done after the cancelled timer's time; want 0, 1", c.rb.hedges, done)
			}
			eng.RunFor(200 * sim.Millisecond)
			if done != 2 {
				t.Fatalf("%d of 2 reads done", done)
			}
		},
		check: func(t *testing.T, c *common, _ []Request) {
			if c.rb.hedges != 1 || c.rb.hedgeWins != 1 || c.rb.hedgeLosses != 0 {
				t.Errorf("hedges %d, wins %d, losses %d; want 1, 1, 0", c.rb.hedges, c.rb.hedgeWins, c.rb.hedgeLosses)
			}
		},
	}, {
		name: "reconstruct-rebuild",
		cfg: func() Config {
			cfg := faultConfig(OrgRAID5, false)
			cfg.Fault = fault.Config{DiskFails: []fault.DiskFail{{Disk: 2, At: 100 * sim.Millisecond}}}
			cfg.Spares = 1
			return cfg
		},
		check: func(t *testing.T, c *common, reqs []Request) {
			if c.fs.rebuilds != 1 {
				t.Errorf("%d rebuilds, want 1", c.fs.rebuilds)
			}
			if c.disks[2].S.Dropped == 0 {
				t.Error("no access to the failed disk was dropped")
			}
			// Reads of the dead slot that arrived while it rebuilt were
			// reconstructed from the survivors.
			lay := c.sch.(*parityScheme).lay
			from, until := 100*sim.Millisecond, 100*sim.Millisecond+c.fs.rebuildBusy
			n := 0
			for i, r := range reqs {
				at := burstAt(i)
				if r.Op == trace.Read && at > from && at < until && lay.Map(r.LBA).Disk == 2 {
					n++
				}
			}
			if n < 5 || c.fs.lostReadBlocks != 0 {
				t.Errorf("%d reads of the dead slot during rebuild, %d blocks lost; want >= 5 and 0", n, c.fs.lostReadBlocks)
			}
		},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, ctrl := build(t, tc.cfg())
			c := commonOf(t, ctrl)
			var reqs []Request
			if tc.drive != nil {
				tc.drive(t, eng, c)
			} else {
				reqs = burst(ctrl.DataBlocks())
				for i, r := range reqs {
					eng.At(burstAt(i), func() { ctrl.Submit(r) })
				}
				eng.RunUntil(sim.Second)
			}
			runUntilRepaired(t, eng, ctrl)
			tc.check(t, c, reqs)
			if n := c.liveRecords(); n != 0 {
				t.Errorf("%d records still live after drain", n)
			}
		})
	}
}

// burst returns 600 mixed requests, 30% writes of 1-4 blocks, arriving
// at burstAt(i): well above the array's service rate, so queues are
// deep when a failure lands.
func burst(capacity int64) []Request {
	src := rng.New(11)
	reqs := make([]Request, 600)
	for i := range reqs {
		op := trace.Read
		if src.Bool(0.3) {
			op = trace.Write
		}
		reqs[i] = Request{Op: op, LBA: src.Int63n(capacity - 8), Blocks: 1 + src.Intn(4)}
	}
	return reqs
}

func burstAt(i int) sim.Time { return sim.Time(i) * sim.Millisecond / 2 }

// TestRecordCountDownOverReleasePanics: the pooled records keep the
// latch's guard against a completion signalled more often than counted.
func TestRecordCountDownOverReleasePanics(t *testing.T) {
	_, ctrl := build(t, testConfig(OrgRAID5, false))
	c := commonOf(t, ctrl)
	b := c.newBatch(writeOp{onDone: func() {}})
	b.left = 1
	b.legDone() // the last leg: the batch completes and is returned
	defer func() {
		if recover() == nil {
			t.Fatal("over-release should panic")
		}
	}()
	b.legDone()
}

// tracedRun runs burst's requests, one every 5 ms, on a raid10 array
// with the telemetry-faults benchmark's layers armed: a recorder with
// span tracing, deadlines, retries of transient errors, hedged reads,
// shedding, a disk failure with a spare and a sick disk. It releases the
// controller and returns its record pools and a flag that a finalizer
// sets once the run's recorder is collected.
func tracedRun(t *testing.T, eng *sim.Engine, cached bool) (*recPools, *atomic.Bool) {
	t.Helper()
	cfg := faultConfig(OrgRAID10, cached)
	cfg.Rec = obs.NewRecorder(obs.Config{Window: 10 * sim.Millisecond, Disks: 8, TraceCap: 4096, SpanTopK: 8})
	cfg.Robust = RobustConfig{Deadline: 100 * sim.Millisecond, Retries: 2, HedgeQuantile: 0.95, ShedQueue: 64}
	cfg.Fault = fault.Config{
		DiskFails: []fault.DiskFail{{Disk: 0, At: 2 * sim.Second}},
		SickDisks: []fault.SickDisk{{Disk: 3, Until: sim.Second, SlowFactor: 2, TransientRate: 0.05}},
		Seed:      5,
	}
	cfg.Spares = 1
	ctrl, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range burst(ctrl.DataBlocks()) {
		eng.At(sim.Time(i)*5*sim.Millisecond, func() { ctrl.Submit(r) })
	}
	eng.RunUntil(3 * sim.Second)
	runUntilRepaired(t, eng, ctrl)
	c := commonOf(t, ctrl)
	if c.rb.retries == 0 || c.rb.hedges == 0 || c.fs.rebuilds != 1 {
		t.Fatalf("retries %d, hedges %d, rebuilds %d; want every layer to act", c.rb.retries, c.rb.hedges, c.fs.rebuilds)
	}
	ctrl.Results()
	recs := c.recs
	ctrl.Release()
	collected := new(atomic.Bool)
	runtime.SetFinalizer(cfg.Rec, func(*obs.Recorder) { collected.Store(true) })
	return recs, collected
}

// strayPointer returns the path of the first pointer v holds, walking
// structs, arrays, slices, interfaces and pointers, that leads anywhere
// but to a record: a free record may reach other records (a batch its
// legs, a leg its batch) and nothing else. Func values are not walked;
// every one a record holds is a method value bound to a record.
func strayPointer(v reflect.Value, path string, records map[reflect.Type]bool, seen map[uintptr]bool) string {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return ""
		}
		if !records[v.Type().Elem()] {
			return path + " (" + v.Type().String() + ")"
		}
		if seen[v.Pointer()] {
			return ""
		}
		seen[v.Pointer()] = true
		return strayPointer(v.Elem(), path, records, seen)
	case reflect.Interface:
		if v.IsNil() {
			return ""
		}
		return strayPointer(v.Elem(), path, records, seen)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if p := strayPointer(v.Field(i), path+"."+v.Type().Field(i).Name, records, seen); p != "" {
				return p
			}
		}
	case reflect.Array, reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			if p := strayPointer(v.Index(i), fmt.Sprintf("%s[%d]", path, i), records, seen); p != "" {
				return p
			}
		}
	}
	return ""
}

// TestReleasedRecordsReachNothing: a controller's records outlive it, so
// a released free record must reach nothing of its run. After a traced,
// faulted run is released, every free record points only to records (no
// controller, span or drive), and once a new controller has taken the
// pools, the run's recorder, which its shared state holds, is collected.
// The recorder stands for the whole run: a finalizer never runs on an
// object in a reference cycle, such as the shared state (through its
// scheme) or the tracer (through its span trees).
func TestReleasedRecordsReachNothing(t *testing.T) {
	records := map[reflect.Type]bool{}
	for _, r := range []any{reqRec{}, readRec{}, hedgeOp{}, batchRec{}, legRec{}, creqRec{}, roomRec{}, wbRec{}} {
		records[reflect.TypeOf(r)] = true
	}
	for _, cached := range []bool{false, true} {
		t.Run(fmt.Sprintf("cached=%v", cached), func(t *testing.T) {
			eng := sim.New()
			recs, collected := tracedRun(t, eng, cached)
			used := []string{"reqs", "reads", "hedges", "batches"}
			if cached {
				used = append(used, "creqs", "writeBacks")
			}
			pools := reflect.ValueOf(recs).Elem()
			for _, name := range used {
				if pools.FieldByName(name).FieldByName("free").Len() == 0 {
					t.Errorf("the run left no free %s records to check", name)
				}
			}
			if p := strayPointer(pools, "recPools", records, map[uintptr]bool{}); p != "" {
				t.Errorf("free record %s reaches the released run", p)
			}

			eng.Reset()
			next, err := New(eng, testConfig(OrgRAID10, cached))
			if err != nil {
				t.Fatal(err)
			}
			if commonOf(t, next).recs != recs {
				t.Skip("the pool dropped the released records (as it may under -race)")
			}
			for i := 0; i < 50 && !collected.Load(); i++ {
				runtime.GC()
				time.Sleep(time.Millisecond)
			}
			if !collected.Load() {
				t.Error("the released run's recorder is still reachable")
			}
			runtime.KeepAlive(next)
		})
	}
}
