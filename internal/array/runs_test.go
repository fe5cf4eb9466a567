package array

import (
	"testing"

	"raidsim/internal/layout"
)

// spanLBAs returns the logical blocks [lba, lba+n).
func spanLBAs(lba int64, n int) []int64 { return appendSpan(nil, lba, n) }

// dataRunsSpan maps the logical span [lba, lba+n) into a fresh runBuf.
func dataRunsSpan(lay layout.DataLayout, lba int64, n int) []run {
	return new(runBuf).dataRuns(lay, spanLBAs(lba, n))
}

func TestDataRunsBaseContiguous(t *testing.T) {
	lay := layout.NewBase(4, 100)
	runs := dataRunsSpan(lay, 95, 10) // crosses from disk 0 into disk 1
	if len(runs) != 2 {
		t.Fatalf("got %d runs, want 2", len(runs))
	}
	if runs[0].disk != 0 || runs[0].start != 95 || runs[0].blocks != 5 {
		t.Fatalf("run 0 = %+v", runs[0])
	}
	if runs[1].disk != 1 || runs[1].start != 0 || runs[1].blocks != 5 {
		t.Fatalf("run 1 = %+v", runs[1])
	}
	if len(runs[0].lbas) != 5 || runs[0].lbas[0] != 95 {
		t.Fatalf("lbas: %v", runs[0].lbas)
	}
}

func TestDataRunsCoverEveryBlock(t *testing.T) {
	lays := []layout.DataLayout{
		layout.NewBase(3, 60),
		layout.NewRAID5(3, 60, 1),
		layout.NewRAID5(3, 60, 4),
		layout.NewRAID4(3, 60, 2),
		layout.NewParityStriping(3, 60, layout.MiddlePlacement, 0),
	}
	for _, lay := range lays {
		for _, span := range []struct{ lba, n int64 }{{0, 17}, {30, 8}, {59, 1}} {
			runs := dataRunsSpan(lay, span.lba, int(span.n))
			seen := map[int64]bool{}
			total := 0
			for _, r := range runs {
				total += int(r.blocks)
				if len(r.lbas) != int(r.blocks) {
					t.Fatalf("%T: run lbas/blocks mismatch", lay)
				}
				for i, l := range r.lbas {
					if seen[l] {
						t.Fatalf("%T: lba %d in two runs", lay, l)
					}
					seen[l] = true
					loc := lay.Map(l)
					if loc.Disk != r.disk || loc.Block != r.start+int64(i) {
						t.Fatalf("%T: run misplaces lba %d", lay, l)
					}
				}
			}
			if total != int(span.n) {
				t.Fatalf("%T: runs cover %d blocks, want %d", lay, total, span.n)
			}
		}
	}
}

// planUpdate builds a fresh updatePlan for writing the given logical
// blocks; see updatePlan.build.
func planUpdate(lay layout.ParityLayout, lbas []int64, hasOld func(int64) bool) *updatePlan {
	p := new(updatePlan)
	p.build(new(runBuf), lay, lbas, hasOld)
	return p
}

func TestPlanUpdateFullStripe(t *testing.T) {
	lay := layout.NewRAID5(4, 100, 1) // stripe = 4 consecutive blocks
	plan := planUpdate(lay, spanLBAs(0, 4), nil)
	if len(plan.parityRuns) != 1 {
		t.Fatalf("parity runs: %d", len(plan.parityRuns))
	}
	if !plan.parityRuns[0].full {
		t.Fatal("full stripe not detected")
	}
	for i, rmw := range plan.dataRMW {
		if rmw {
			t.Fatalf("data run %d marked RMW in a full-stripe write", i)
		}
	}
	if len(plan.deps[0]) != 0 {
		t.Fatal("full-stripe parity should have no dependencies")
	}
}

func TestPlanUpdatePartialStripe(t *testing.T) {
	lay := layout.NewRAID5(4, 100, 1)
	plan := planUpdate(lay, spanLBAs(0, 1), nil)
	if len(plan.dataRuns) != 1 || len(plan.parityRuns) != 1 {
		t.Fatalf("runs: %d data %d parity", len(plan.dataRuns), len(plan.parityRuns))
	}
	if !plan.dataRMW[0] {
		t.Fatal("partial write without old data must RMW")
	}
	if plan.parityRuns[0].full {
		t.Fatal("partial stripe marked full")
	}
	if len(plan.deps[0]) != 1 || plan.deps[0][0] != 0 {
		t.Fatalf("deps: %v", plan.deps)
	}
}

func TestPlanUpdateWithOldDataCached(t *testing.T) {
	lay := layout.NewRAID5(4, 100, 1)
	plan := planUpdate(lay, spanLBAs(0, 1), func(int64) bool { return true })
	if plan.dataRMW[0] {
		t.Fatal("old data in cache: data write should be plain")
	}
	if plan.parityRuns[0].full {
		t.Fatal("still a partial stripe")
	}
	if len(plan.deps[0]) != 0 {
		t.Fatal("parity needs no disk reads when old data is cached")
	}
}

func TestPlanUpdateMixedCoverage(t *testing.T) {
	// 5 blocks at SU=1 over N=4: stripe 0 fully covered (blocks 0-3),
	// stripe 1 partially (block 4).
	lay := layout.NewRAID5(4, 100, 1)
	plan := planUpdate(lay, spanLBAs(0, 5), nil)
	full, partial := 0, 0
	for _, pr := range plan.parityRuns {
		if pr.full {
			full += pr.blocks
		} else {
			partial += pr.blocks
		}
	}
	if full != 1 || partial != 1 {
		t.Fatalf("coverage: %d full %d partial parity blocks", full, partial)
	}
	// Only the stripe-1 data needs RMW.
	rmwBlocks := 0
	for i, r := range plan.dataRuns {
		if plan.dataRMW[i] {
			rmwBlocks += int(r.blocks)
		}
	}
	if rmwBlocks != 1 {
		t.Fatalf("%d blocks RMW, want 1", rmwBlocks)
	}
}

func TestPlanUpdateParityDedup(t *testing.T) {
	// With SU=2 and a 2-block-aligned write, both blocks share... each
	// block has its own parity block (same stripe, different offsets) —
	// they should merge into one contiguous parity run.
	lay := layout.NewRAID5(4, 100, 2)
	plan := planUpdate(lay, spanLBAs(0, 2), nil)
	if len(plan.parityRuns) != 1 || plan.parityRuns[0].blocks != 2 {
		t.Fatalf("parity runs: %+v", plan.parityRuns)
	}
}

func TestPlanUpdateParityStriping(t *testing.T) {
	lay := layout.NewParityStriping(4, 100, layout.MiddlePlacement, 0)
	plan := planUpdate(lay, spanLBAs(7, 3), nil)
	// Contiguous data on one disk; parity for 3 consecutive area offsets
	// is contiguous in one parity area.
	if len(plan.dataRuns) != 1 {
		t.Fatalf("data runs: %d", len(plan.dataRuns))
	}
	if len(plan.parityRuns) != 1 || plan.parityRuns[0].blocks != 3 {
		t.Fatalf("parity runs: %+v", plan.parityRuns)
	}
	if plan.parityRuns[0].disk == plan.dataRuns[0].disk {
		t.Fatal("parity on the data disk")
	}
}

func TestLatch(t *testing.T) {
	fired := 0
	l := newLatch(3, func() { fired++ })
	l.done()
	l.done()
	if fired != 0 {
		t.Fatal("latch fired early")
	}
	l.done()
	if fired != 1 {
		t.Fatal("latch did not fire")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("over-release should panic")
		}
	}()
	l.done()
}

func TestLatchZeroFiresImmediately(t *testing.T) {
	fired := false
	newLatch(0, func() { fired = true })
	if !fired {
		t.Fatal("zero latch did not fire")
	}
}

func TestParseHelpers(t *testing.T) {
	for _, s := range []string{"base", "mirror", "raid5", "raid4", "pstripe"} {
		o, err := ParseOrg(s)
		if err != nil {
			t.Fatalf("ParseOrg(%q): %v", s, err)
		}
		if o.String() != s {
			t.Fatalf("round trip %q -> %q", s, o.String())
		}
	}
	if _, err := ParseOrg("nope"); err == nil {
		t.Fatal("bad org parsed")
	}
	for _, s := range []string{"si", "rf", "rfpr", "df", "dfpr"} {
		if _, err := ParseSyncPolicy(s); err != nil {
			t.Fatalf("ParseSyncPolicy(%q): %v", s, err)
		}
	}
	if _, err := ParseSyncPolicy("xx"); err == nil {
		t.Fatal("bad policy parsed")
	}
}
