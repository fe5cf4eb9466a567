package array

import (
	"reflect"
	"testing"

	"raidsim/internal/fault"
	"raidsim/internal/geom"
	"raidsim/internal/sim"
	"raidsim/internal/trace"
)

// smallSpec is a deliberately tiny drive (768 blocks) so rebuild sweeps
// finish in a few simulated seconds.
func smallSpec() geom.Spec {
	s := geom.Default()
	s.Cylinders = 64
	s.Heads = 2
	return s
}

func faultConfig(org Org, cached bool) Config {
	cfg := testConfig(org, cached)
	cfg.Spec = smallSpec()
	return cfg
}

// runUntilRepaired advances time until no rebuild is active and the
// controller drains, or fails the test.
func runUntilRepaired(t *testing.T, eng *sim.Engine, ctrl Controller) {
	t.Helper()
	ra := ctrl.(interface{ RebuildActive() bool })
	for i := 0; i < 100000 && (ra.RebuildActive() || !ctrl.Drained()); i++ {
		eng.RunFor(10 * sim.Millisecond)
	}
	if ra.RebuildActive() {
		t.Fatal("rebuild never completed")
	}
	if !ctrl.Drained() {
		t.Fatal("controller did not drain")
	}
}

// TestMirrorReadFailover: after one copy dies, reads of its data redirect
// to the surviving copy and nothing is lost.
func TestMirrorReadFailover(t *testing.T) {
	cfg := faultConfig(OrgMirror, false)
	cfg.Fault = fault.Config{DiskFails: []fault.DiskFail{{Disk: 0, At: 100 * sim.Millisecond}}}
	eng, ctrl := build(t, cfg)
	// Pair 0 holds LBAs [0, 768): read them before and after the failure.
	for i := 0; i < 8; i++ {
		lba := int64(i * 10)
		eng.At(sim.Time(i)*30*sim.Millisecond, func() {
			ctrl.Submit(Request{Op: trace.Read, LBA: lba, Blocks: 1})
		})
	}
	eng.RunUntil(sim.Second)
	drain(t, eng, ctrl)
	res := ctrl.Results()
	f := res.Fault
	if f.Failures != 1 {
		t.Fatalf("failures = %d, want 1", f.Failures)
	}
	if f.FailoverReads == 0 {
		t.Fatal("no reads failed over to the surviving copy")
	}
	if f.LostReadBlocks != 0 || f.DataLossEvents != 0 {
		t.Fatalf("mirror lost data with one copy alive: %+v", f)
	}
	if res.Resp.N() != 8 {
		t.Fatalf("responses = %d, want 8", res.Resp.N())
	}
	if res.DegradedResp.N() == 0 || res.NormalResp.N() == 0 {
		t.Fatalf("degraded/normal split missing: %d/%d", res.DegradedResp.N(), res.NormalResp.N())
	}
	if res.DegradedResp.N()+res.NormalResp.N() != res.Resp.N() {
		t.Fatal("degraded + normal != total")
	}
	if !f.DegradedActive || f.DegradedTime == 0 {
		t.Fatalf("degraded window not tracked: %+v", f)
	}
}

// TestMirrorWriteSingleCopy: with one copy dead, writes land on the
// survivor only, and are not counted lost.
func TestMirrorWriteSingleCopy(t *testing.T) {
	cfg := faultConfig(OrgMirror, false)
	cfg.Fault = fault.Config{DiskFails: []fault.DiskFail{{Disk: 0, At: 0}}}
	eng, ctrl := build(t, cfg)
	eng.At(sim.Millisecond, func() {
		ctrl.Submit(Request{Op: trace.Write, LBA: 0, Blocks: 4})
	})
	eng.RunUntil(sim.Second)
	drain(t, eng, ctrl)
	res := ctrl.Results()
	if res.Fault.LostWriteBlocks != 0 {
		t.Fatalf("lost %d write blocks with a surviving copy", res.Fault.LostWriteBlocks)
	}
	if res.DiskAccesses[0] != 0 {
		t.Fatalf("dead disk serviced %d accesses", res.DiskAccesses[0])
	}
	if res.DiskAccesses[1] == 0 {
		t.Fatal("surviving copy got no writes")
	}
}

// TestMirrorResilver: with a hot spare, the dead copy is rebuilt from its
// partner and duplication is restored — afterwards both copies serve.
func TestMirrorResilver(t *testing.T) {
	cfg := faultConfig(OrgMirror, false)
	cfg.Spares = 1
	cfg.Fault = fault.Config{DiskFails: []fault.DiskFail{{Disk: 0, At: 10 * sim.Millisecond}}}
	eng, ctrl := build(t, cfg)
	eng.RunUntil(20 * sim.Millisecond)
	runUntilRepaired(t, eng, ctrl)
	res := ctrl.Results()
	f := res.Fault
	if f.SparesUsed != 1 || f.Rebuilds != 1 {
		t.Fatalf("spares used %d, rebuilds %d", f.SparesUsed, f.Rebuilds)
	}
	if f.RebuildTime <= 0 {
		t.Fatal("rebuild took no time")
	}
	if f.DegradedActive {
		t.Fatal("still degraded after rebuild")
	}
	// The re-silvered copy serves reads again: submit many reads of pair-0
	// data and check slot 0 participates.
	before := res.DiskAccesses[0]
	for i := 0; i < 16; i++ {
		ctrl.Submit(Request{Op: trace.Read, LBA: int64(i * 7), Blocks: 1})
	}
	drain(t, eng, ctrl)
	after := ctrl.Results().DiskAccesses[0]
	if after <= before {
		t.Fatal("re-silvered copy never serviced a read")
	}
}

// TestRAID5ReconstructReads: reads of a dead disk's blocks are served by
// reconstruction from the survivors; nothing is lost.
func TestRAID5ReconstructReads(t *testing.T) {
	cfg := faultConfig(OrgRAID5, false)
	cfg.Fault = fault.Config{DiskFails: []fault.DiskFail{{Disk: 2, At: 0}}}
	eng, ctrl := build(t, cfg)
	for i := 0; i < 12; i++ {
		lba := int64(i * 11)
		eng.At(sim.Time(i+1)*sim.Millisecond, func() {
			ctrl.Submit(Request{Op: trace.Read, LBA: lba, Blocks: 1})
		})
	}
	eng.RunUntil(sim.Second)
	drain(t, eng, ctrl)
	res := ctrl.Results()
	if res.Resp.N() != 12 {
		t.Fatalf("responses = %d, want 12", res.Resp.N())
	}
	if res.Fault.LostReadBlocks != 0 || res.Fault.DataLossEvents != 0 {
		t.Fatalf("single failure lost data: %+v", res.Fault)
	}
	if res.DiskAccesses[2] != 0 {
		t.Fatal("dead disk serviced accesses")
	}

	// One read of a block homed on the dead disk fans out to the N-1
	// surviving stripe members plus parity: exactly N reads.
	eng, ctrl = build(t, cfg)
	lba := homedOn(t, ctrl, 2)
	eng.At(sim.Millisecond, func() {
		ctrl.Submit(Request{Op: trace.Read, LBA: lba, Blocks: 1})
	})
	eng.RunUntil(sim.Second)
	drain(t, eng, ctrl)
	res = ctrl.Results()
	var reads int64
	for _, n := range res.DiskAccesses {
		reads += n
	}
	if reads != int64(cfg.N) || res.DiskAccesses[2] != 0 {
		t.Fatalf("reconstructing read issued %d accesses (dead slot %d), want %d survivor reads",
			reads, res.DiskAccesses[2], cfg.N)
	}
	if res.DegradedResp.N() != 1 {
		t.Fatalf("reconstructing read not counted degraded: %d", res.DegradedResp.N())
	}
}

// homedOn returns the first logical block a parity controller maps to
// physical slot d.
func homedOn(t *testing.T, ctrl Controller, d int) int64 {
	t.Helper()
	lay := ctrl.(*schemeCtrl).s.(*parityScheme).lay
	for l := int64(0); l < lay.DataBlocks(); l++ {
		if lay.Map(l).Disk == d {
			return l
		}
	}
	t.Fatalf("no block homed on disk %d", d)
	return 0
}

// TestRAID5RebuildSweep: with a hot spare and no foreground load, the
// sweep rebuilds the dead slot in ceil(BlocksPerDisk/RebuildChunk)
// writes onto the spare, a RebuildPause between chunks lengthens it, and
// afterwards the rebuilt slot serves its own reads at normal service.
func TestRAID5RebuildSweep(t *testing.T) {
	bpd := smallSpec().BlocksPerDisk()
	times := map[sim.Time]sim.Time{}
	for _, tc := range []struct {
		chunk int
		pause sim.Time
	}{{48, 0}, {96, 0}, {48, 20 * sim.Millisecond}} {
		cfg := faultConfig(OrgRAID5, false)
		cfg.Spares = 1
		cfg.RebuildChunk = tc.chunk
		cfg.RebuildPause = tc.pause
		cfg.Fault = fault.Config{DiskFails: []fault.DiskFail{{Disk: 1, At: 0}}}
		eng, ctrl := build(t, cfg)
		eng.RunUntil(sim.Millisecond)
		runUntilRepaired(t, eng, ctrl)
		res := ctrl.Results()
		if res.Fault.Rebuilds != 1 {
			t.Fatalf("chunk %d: rebuilds = %d, want 1", tc.chunk, res.Fault.Rebuilds)
		}
		want := (bpd + int64(tc.chunk) - 1) / int64(tc.chunk)
		if res.DiskAccesses[1] != want {
			t.Fatalf("chunk %d: spare took %d writes, want %d", tc.chunk, res.DiskAccesses[1], want)
		}
		if tc.chunk == 48 {
			times[tc.pause] = res.Fault.RebuildTime
		}

		lba := homedOn(t, ctrl, 1)
		before := res.DiskAccesses[1]
		ctrl.Submit(Request{Op: trace.Read, LBA: lba, Blocks: 1})
		drain(t, eng, ctrl)
		res = ctrl.Results()
		if res.DiskAccesses[1] != before+1 {
			t.Fatalf("chunk %d: rebuilt slot did not serve its read", tc.chunk)
		}
		if res.NormalResp.N() != 1 || res.DegradedResp.N() != 0 {
			t.Fatalf("chunk %d: post-rebuild read not normal (normal %d, degraded %d)",
				tc.chunk, res.NormalResp.N(), res.DegradedResp.N())
		}
	}
	if times[20*sim.Millisecond] <= times[0] {
		t.Fatalf("RebuildPause did not lengthen the rebuild: %v", times)
	}
}

// TestRAID5DegradedWrites exercises all the degraded write cases: the
// array keeps accepting writes with one disk down.
func TestRAID5DegradedWrites(t *testing.T) {
	cfg := faultConfig(OrgRAID5, false)
	cfg.Fault = fault.Config{DiskFails: []fault.DiskFail{{Disk: 1, At: 0}}}
	eng, ctrl := build(t, cfg)
	for i := 0; i < 12; i++ {
		lba := int64(i * 13)
		eng.At(sim.Time(i+1)*sim.Millisecond, func() {
			ctrl.Submit(Request{Op: trace.Write, LBA: lba, Blocks: 1})
		})
	}
	eng.RunUntil(sim.Second)
	drain(t, eng, ctrl)
	res := ctrl.Results()
	if res.Resp.N() != 12 {
		t.Fatalf("responses = %d, want 12", res.Resp.N())
	}
	if res.Fault.LostWriteBlocks != 0 {
		t.Fatalf("lost %d write blocks with N-1 redundancy intact", res.Fault.LostWriteBlocks)
	}
}

// TestRAID5SpareRebuildDeterminism is the acceptance scenario: a RAID5
// run with a mid-run failure and one hot spare completes, rebuilds, and
// is bit-identical across runs of the same seed.
func TestRAID5SpareRebuildDeterminism(t *testing.T) {
	runOnce := func() *Results {
		cfg := faultConfig(OrgRAID5, false)
		cfg.Spares = 1
		cfg.Fault = fault.Config{
			DiskFails: []fault.DiskFail{{Disk: 0, At: 30 * sim.Millisecond}},
			Seed:      42,
		}
		eng, ctrl := build(t, cfg)
		for i := 0; i < 30; i++ {
			lba := int64(i * 17)
			op := trace.Read
			if i%3 == 0 {
				op = trace.Write
			}
			eng.At(sim.Time(i)*2*sim.Millisecond, func() {
				ctrl.Submit(Request{Op: op, LBA: lba, Blocks: 1})
			})
		}
		eng.RunUntil(sim.Second)
		runUntilRepaired(t, eng, ctrl)
		eng.RunUntil(20 * sim.Second) // common snapshot time for utilizations
		return ctrl.Results()
	}
	a, b := runOnce(), runOnce()
	if a.Fault.Rebuilds != 1 || a.Fault.SparesUsed != 1 {
		t.Fatalf("rebuild did not run: %+v", a.Fault)
	}
	if a.Resp.N() != 30 {
		t.Fatalf("responses = %d, want 30", a.Resp.N())
	}
	if a.DegradedResp.N() == 0 {
		t.Fatal("no degraded-window samples")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%+v\nvs\n%+v", a, b)
	}
}

// TestBaseFailureLosesData: without redundancy a failure is a data-loss
// event and reads of the dead disk are unrecoverable.
func TestBaseFailureLosesData(t *testing.T) {
	cfg := faultConfig(OrgBase, false)
	cfg.Fault = fault.Config{DiskFails: []fault.DiskFail{{Disk: 0, At: 0}}}
	eng, ctrl := build(t, cfg)
	eng.At(sim.Millisecond, func() {
		ctrl.Submit(Request{Op: trace.Read, LBA: 0, Blocks: 2}) // disk 0's space
	})
	eng.RunUntil(sim.Second)
	drain(t, eng, ctrl)
	res := ctrl.Results()
	if res.Fault.DataLossEvents != 1 {
		t.Fatalf("data-loss events = %d, want 1", res.Fault.DataLossEvents)
	}
	if res.Fault.LostReadBlocks != 2 {
		t.Fatalf("lost read blocks = %d, want 2", res.Fault.LostReadBlocks)
	}
	if res.Resp.N() != 1 {
		t.Fatal("request did not complete")
	}
}

// TestMirrorDoubleFailureLosesData: both copies of a pair down is a
// data-loss event.
func TestMirrorDoubleFailureLosesData(t *testing.T) {
	cfg := faultConfig(OrgMirror, false)
	cfg.Fault = fault.Config{DiskFails: []fault.DiskFail{
		{Disk: 0, At: 0}, {Disk: 1, At: sim.Millisecond},
	}}
	eng, ctrl := build(t, cfg)
	eng.At(2*sim.Millisecond, func() {
		ctrl.Submit(Request{Op: trace.Read, LBA: 0, Blocks: 1})
	})
	eng.RunUntil(sim.Second)
	drain(t, eng, ctrl)
	res := ctrl.Results()
	if res.Fault.DataLossEvents != 1 {
		t.Fatalf("data-loss events = %d, want 1", res.Fault.DataLossEvents)
	}
	if res.Fault.LostReadBlocks != 1 {
		t.Fatalf("lost read blocks = %d, want 1", res.Fault.LostReadBlocks)
	}
}

// TestCacheFailureLosesDirtyData: killing the NVRAM cache counts the
// dirty blocks it held and the array keeps serving from a fresh cache.
func TestCacheFailureLosesDirtyData(t *testing.T) {
	cfg := faultConfig(OrgRAID5, true)
	cfg.DestagePeriod = 10 * sim.Second // don't destage before the failure
	cfg.Fault = fault.Config{CacheFailAt: 50 * sim.Millisecond}
	eng, ctrl := build(t, cfg)
	eng.At(sim.Millisecond, func() {
		ctrl.Submit(Request{Op: trace.Write, LBA: 0, Blocks: 8})
	})
	// Post-failure traffic must still work.
	eng.At(100*sim.Millisecond, func() {
		ctrl.Submit(Request{Op: trace.Read, LBA: 100, Blocks: 1})
		ctrl.Submit(Request{Op: trace.Write, LBA: 200, Blocks: 1})
	})
	eng.RunUntil(sim.Second)
	drain(t, eng, ctrl)
	res := ctrl.Results()
	if res.Fault.CacheFailures != 1 {
		t.Fatalf("cache failures = %d, want 1", res.Fault.CacheFailures)
	}
	if res.Fault.DirtyBlocksLost != 8 {
		t.Fatalf("dirty blocks lost = %d, want 8", res.Fault.DirtyBlocksLost)
	}
	if res.Resp.N() != 3 {
		t.Fatalf("responses = %d, want 3", res.Resp.N())
	}
}

// TestCacheFailureDuringDestageStagger: the NVRAM dies after a destage
// tick has marked its chunks but before the staggered later chunks are
// issued. Their write-backs were marked in the dead cache, so their
// completions must not touch the fresh one.
func TestCacheFailureDuringDestageStagger(t *testing.T) {
	cfg := faultConfig(OrgRAID5, true)
	// The tick at 1 s marks three chunks and issues the later two
	// ~67 ms apart; the cache dies between the first two issues.
	cfg.Fault = fault.Config{CacheFailAt: sim.Second + 10*sim.Millisecond}
	eng, ctrl := build(t, cfg)
	eng.At(sim.Millisecond, func() {
		ctrl.Submit(Request{Op: trace.Write, LBA: 0, Blocks: 2 * destageChunk})
		ctrl.Submit(Request{Op: trace.Write, LBA: 1000, Blocks: destageChunk / 2})
	})
	eng.RunUntil(3 * sim.Second)
	drain(t, eng, ctrl)
	cc := ctrl.(*cachedCtrl)
	if n := cc.Results().Fault.CacheFailures; n != 1 {
		t.Fatalf("cache failures = %d, want 1", n)
	}
	if cc.c.Len() != 0 || cc.c.DirtyCount() != 0 {
		t.Fatalf("fresh cache holds %d blocks (%d dirty), want none", cc.c.Len(), cc.c.DirtyCount())
	}
	if n := cc.liveRecords(); n != 0 {
		t.Fatalf("%d records still live", n)
	}
}

// TestSectorErrorsRetryAndReconstruct: latent sector errors retry, then
// reconstruct from redundancy, without failing the request.
func TestSectorErrorsRetryAndReconstruct(t *testing.T) {
	cfg := faultConfig(OrgRAID5, false)
	cfg.Fault = fault.Config{SectorErrorRate: 0.4, Seed: 9}
	eng, ctrl := build(t, cfg)
	for i := 0; i < 40; i++ {
		lba := int64(i * 3)
		eng.At(sim.Time(i+1)*sim.Millisecond, func() {
			ctrl.Submit(Request{Op: trace.Read, LBA: lba, Blocks: 1})
		})
	}
	eng.RunUntil(sim.Second)
	drain(t, eng, ctrl)
	res := ctrl.Results()
	if res.Resp.N() != 40 {
		t.Fatalf("responses = %d, want 40", res.Resp.N())
	}
	f := res.Fault
	if f.SectorErrors == 0 || f.SectorRetries == 0 {
		t.Fatalf("sector error machinery idle: %+v", f)
	}
	if f.SectorReconstructs == 0 {
		t.Fatalf("no retry exhaustion at 40%% error rate: %+v", f)
	}
	if f.LostReadBlocks != 0 {
		t.Fatalf("healthy array lost %d blocks to sector errors", f.LostReadBlocks)
	}
}

// TestRAID4ParityDiskLoss: RAID4's dedicated parity disk dying leaves
// data fully readable; writes proceed without parity maintenance.
func TestRAID4ParityDiskLoss(t *testing.T) {
	cfg := faultConfig(OrgRAID4, true)
	// Parity disk of a 4+1 RAID4 is slot N = 4.
	cfg.Fault = fault.Config{DiskFails: []fault.DiskFail{{Disk: 4, At: 5 * sim.Millisecond}}}
	eng, ctrl := build(t, cfg)
	for i := 0; i < 10; i++ {
		lba := int64(i * 19)
		op := trace.Read
		if i%2 == 0 {
			op = trace.Write
		}
		eng.At(sim.Time(i+1)*10*sim.Millisecond, func() {
			ctrl.Submit(Request{Op: op, LBA: lba, Blocks: 1})
		})
	}
	eng.RunUntil(5 * sim.Second)
	drain(t, eng, ctrl)
	res := ctrl.Results()
	if res.Resp.N() != 10 {
		t.Fatalf("responses = %d, want 10", res.Resp.N())
	}
	f := res.Fault
	if f.LostReadBlocks != 0 || f.LostWriteBlocks != 0 {
		t.Fatalf("parity-disk loss lost data blocks: %+v", f)
	}
	if f.DataLossEvents != 0 {
		t.Fatalf("single failure counted as data loss: %+v", f)
	}
}

// TestStochasticMTTFFailures: exponential lifetimes fire mid-run and are
// deterministic per seed.
func TestStochasticMTTFFailures(t *testing.T) {
	runOnce := func() *Results {
		cfg := faultConfig(OrgMirror, false)
		cfg.Spares = 4
		cfg.Fault = fault.Config{MTTF: 2 * sim.Second, Seed: 21}
		eng, ctrl := build(t, cfg)
		eng.RunUntil(4 * sim.Second)
		runUntilRepaired(t, eng, ctrl)
		eng.RunUntil(60 * sim.Second)
		return ctrl.Results()
	}
	a, b := runOnce(), runOnce()
	if a.Fault.Failures == 0 {
		t.Fatal("no stochastic failures over 2 MTTFs")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("stochastic fault schedule diverged between identical seeds")
	}
}

// TestFaultRejectsComparators: RAID3 and parity logging have no degraded
// model and must refuse fault configs.
func TestFaultRejectsComparators(t *testing.T) {
	for _, org := range []Org{OrgRAID3, OrgParityLog} {
		cfg := testConfig(org, false)
		cfg.Fault = fault.Config{MTTF: sim.Second}
		if _, err := New(sim.New(), cfg); err == nil {
			t.Errorf("%v accepted a fault config", org)
		}
	}
}

// TestCacheResultsSpanNVRAMFailure: the cache counters cover the whole
// run, the module an NVRAM failure swapped out included, not only the
// time since the failure.
func TestCacheResultsSpanNVRAMFailure(t *testing.T) {
	cfg := faultConfig(OrgRAID5, true)
	cfg.DestagePeriod = 10 * sim.Second // don't destage before the failure
	cfg.Fault = fault.Config{CacheFailAt: 50 * sim.Millisecond}
	eng, ctrl := build(t, cfg)
	eng.At(sim.Millisecond, func() {
		ctrl.Submit(Request{Op: trace.Write, LBA: 0, Blocks: 8})
	})
	eng.At(100*sim.Millisecond, func() {
		ctrl.Submit(Request{Op: trace.Read, LBA: 100, Blocks: 1})
		ctrl.Submit(Request{Op: trace.Write, LBA: 200, Blocks: 1})
	})
	eng.RunUntil(sim.Second)
	drain(t, eng, ctrl)
	// Eight blocks land before the failure, two after: the read miss
	// and the write.
	if got := ctrl.Results().Cache; got.Inserts != 10 || got.PeakUsed != 8 {
		t.Fatalf("inserts %d, peak %d; want 10 and 8 over the run", got.Inserts, got.PeakUsed)
	}
}
