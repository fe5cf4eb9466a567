package array

import (
	"testing"

	"raidsim/internal/sim"
	"raidsim/internal/trace"
)

func TestRAID3EveryRequestUsesAllArms(t *testing.T) {
	cfg := testConfig(OrgRAID3, false)
	eng, ctrl := build(t, cfg)
	r3 := ctrl.(*schemeCtrl)
	n := cfg.N

	ctrl.Submit(Request{Op: trace.Read, LBA: 7, Blocks: 1})
	drain(t, eng, ctrl)
	for d := 0; d < n; d++ {
		if r3.disks[d].S.Reads != 1 {
			t.Fatalf("data disk %d saw %d reads, want 1", d, r3.disks[d].S.Reads)
		}
	}
	if r3.disks[n].S.Accesses != 0 {
		t.Fatal("parity disk touched on a read")
	}

	ctrl.Submit(Request{Op: trace.Write, LBA: 42, Blocks: 1})
	drain(t, eng, ctrl)
	for d := 0; d <= n; d++ {
		if r3.disks[d].S.Writes != 1 {
			t.Fatalf("disk %d saw %d writes, want 1", d, r3.disks[d].S.Writes)
		}
	}
	// RAID3 small writes never read-modify-write.
	for d := 0; d <= n; d++ {
		if r3.disks[d].S.RMWs != 0 {
			t.Fatal("RAID3 should not RMW")
		}
	}
}

func TestRAID3TransferScalesWithRequest(t *testing.T) {
	cfg := testConfig(OrgRAID3, false)
	eng, ctrl := build(t, cfg)
	// Large sequential read: media time per disk is 1/N of the total,
	// so a 40-block read should complete far faster than on one arm.
	ctrl.Submit(Request{Op: trace.Read, LBA: 0, Blocks: 40})
	drain(t, eng, ctrl)
	big := ctrl.Results().ReadResp.Mean()
	// One-arm equivalent: base organization, same request.
	cfgB := testConfig(OrgBase, false)
	engB, ctrlB := build(t, cfgB)
	ctrlB.Submit(Request{Op: trace.Read, LBA: 0, Blocks: 40})
	drain(t, engB, ctrlB)
	single := ctrlB.Results().ReadResp.Mean()
	if big >= single {
		t.Fatalf("RAID3 large read (%.2f ms) not faster than single-arm (%.2f ms)", big, single)
	}
}

func TestRAID3SpindlesForcedSynchronized(t *testing.T) {
	cfg := testConfig(OrgRAID3, false)
	cfg.SyncSpindles = false // must be overridden
	eng, ctrl := build(t, cfg)
	r3 := ctrl.(*schemeCtrl)
	ctrl.Submit(Request{Op: trace.Read, LBA: 0, Blocks: 1})
	drain(t, eng, ctrl)
	// Each disk serves one access, so its busy time is that access's
	// service time.
	first := r3.disks[0].S.Util.BusyTime(eng.Now())
	for d := 1; d < cfg.N; d++ {
		if got := r3.disks[d].S.Util.BusyTime(eng.Now()); got != first {
			t.Fatalf("unsynchronized slices: disk %d %d vs %d ns", d, got, first)
		}
	}
}

func TestRAID0StripesWithoutParity(t *testing.T) {
	cfg := testConfig(OrgRAID0, false)
	cfg.StripingUnit = 1
	eng, ctrl := build(t, cfg)
	b := ctrl.(*schemeCtrl)
	if len(b.disks) != cfg.N {
		t.Fatalf("RAID0 has %d disks, want %d (no parity drive)", len(b.disks), cfg.N)
	}
	// Consecutive blocks land on consecutive disks.
	for i := 0; i < cfg.N; i++ {
		ctrl.Submit(Request{Op: trace.Write, LBA: int64(i), Blocks: 1})
	}
	drain(t, eng, ctrl)
	for d := 0; d < cfg.N; d++ {
		if b.disks[d].S.Writes != 1 {
			t.Fatalf("disk %d got %d writes; striping broken", d, b.disks[d].S.Writes)
		}
	}
	if ctrl.Results().Org != OrgRAID0 {
		t.Fatal("results mislabeled")
	}
}

func TestRAID0CachedWorks(t *testing.T) {
	cfg := testConfig(OrgRAID0, true)
	cfg.DestagePeriod = 100 * sim.Millisecond
	eng, ctrl := build(t, cfg)
	for i := 0; i < 20; i++ {
		ctrl.Submit(Request{Op: trace.Write, LBA: int64(i * 3), Blocks: 1})
	}
	eng.RunFor(5 * sim.Second)
	drain(t, eng, ctrl)
	res := ctrl.Results()
	if res.Org != OrgRAID0 || res.Requests != 20 {
		t.Fatalf("cached RAID0 results wrong: %+v", res.Org)
	}
	if res.Cache.Destages == 0 {
		t.Fatal("no destages")
	}
}

func TestRAID3RejectsCached(t *testing.T) {
	cfg := testConfig(OrgRAID3, true)
	eng := sim.New()
	if _, err := New(eng, cfg); err == nil {
		t.Fatal("cached RAID3 accepted")
	}
}
