package raidsim_test

import (
	"testing"

	"raidsim/internal/array"
	"raidsim/internal/core"
	"raidsim/internal/fault"
	"raidsim/internal/geom"
	"raidsim/internal/obs"
	"raidsim/internal/sim"
	"raidsim/internal/workload"
)

// TestRobustOffEquivalence re-runs the full equivalence matrix with the
// robustness layer explicitly zeroed (the defaults) and checks every
// case against the same golden fingerprints: deadlines, retries,
// hedging, shedding, and sick disks all off must cost nothing and
// change nothing, bit for bit.
func TestRobustOffEquivalence(t *testing.T) {
	p := smallProfile()
	p.Requests = 4000
	p.Duration = 240 * sim.Second
	tr, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range equivalenceCases {
		cfg := tc.config()
		cfg.Robust = array.RobustConfig{} // every robustness feature off
		res, err := core.Run(cfg, tr)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Robust.Enabled {
			t.Errorf("%s: robustness layer armed with a zero config", tc.name)
		}
		got := fingerprint(res)
		if want, ok := equivalenceGolden[tc.name]; ok && got != want {
			t.Errorf("%s: zero robust config perturbed the simulation\n got: %s\nwant: %s", tc.name, got, want)
		}
	}
}

// TestDeadlineAccountingIsPureObservation runs one pinned case with only
// a deadline configured. Deadline accounting watches completions — it
// must not move a single event, request, or disk access.
func TestDeadlineAccountingIsPureObservation(t *testing.T) {
	p := smallProfile()
	p.Requests = 4000
	p.Duration = 240 * sim.Second
	tr, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{
		Org: array.OrgRAID5, DataDisks: 10, N: 5,
		Spec: geom.Default(), Sync: array.DF, Seed: 9,
		Robust: array.RobustConfig{Deadline: 50 * sim.Millisecond},
	}
	res, err := core.Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprint(res), equivalenceGolden["raid5"]; got != want {
		t.Errorf("deadline accounting perturbed the simulation\n got: %s\nwant: %s", got, want)
	}
	rb := &res.Robust
	if !rb.Enabled {
		t.Fatal("deadline config did not arm the robustness layer")
	}
	if n := rb.DeadlineMet[array.SLOGold] + rb.DeadlineMiss[array.SLOGold] +
		rb.DeadlineMet[array.SLOBatch] + rb.DeadlineMiss[array.SLOBatch]; n == 0 {
		t.Error("no requests measured against the deadline")
	}
}

// TestRetryPropertyNoDataLoss is the retry/hedge property test from the
// issue: RAID1/0 with a sick disk injecting transient read errors, a
// retry budget of 2, and hedging on. The run must complete with zero
// data loss (exhausted retries fall back to the mirror twin), every
// exhausted read must have spent exactly its full budget, and both the
// retry and hedge machinery must demonstrably fire — including in the
// exported observability event stream.
func TestRetryPropertyNoDataLoss(t *testing.T) {
	const budget = 2
	p := smallProfile()
	p.Requests = 4000
	p.Duration = 240 * sim.Second
	tr, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{
		Org: array.OrgRAID10, DataDisks: 10, N: 5,
		Spec: geom.Default(), Sync: array.DF,
		Seed: 9, StripingUnit: 4,
		Robust: array.RobustConfig{
			Deadline:   50 * sim.Millisecond,
			Retries:    budget,
			HedgeAfter: 10 * sim.Millisecond,
		},
		Fault: fault.Config{
			SickDisks: []fault.SickDisk{{
				Disk:          0,
				At:            20 * sim.Second,
				Until:         150 * sim.Second, // inside the trace (arrivals end ~175s)
				SlowFactor:    8,
				TransientRate: 0.5,
			}},
		},
		Obs: obs.Config{TraceCap: 1 << 14},
	}
	res, err := core.Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Fault
	if f.SickOnsets == 0 || f.SickClears == 0 {
		t.Errorf("sick disk never cycled: %d onsets, %d clears", f.SickOnsets, f.SickClears)
	}
	if f.TransientErrors == 0 {
		t.Error("transient-rate 0.5 produced no transient errors")
	}
	if f.DataLossEvents != 0 || f.LostReadBlocks != 0 || f.LostWriteBlocks != 0 {
		t.Errorf("data loss despite full redundancy: %d events, %d read / %d write blocks",
			f.DataLossEvents, f.LostReadBlocks, f.LostWriteBlocks)
	}
	rb := &res.Robust
	if rb.Retries == 0 {
		t.Error("no retries issued")
	}
	if rb.AttemptsExhausted != rb.RetriesExhausted*budget {
		t.Errorf("exhausted reads did not spend exactly their budget: %d attempts for %d reads x %d retries",
			rb.AttemptsExhausted, rb.RetriesExhausted, budget)
	}
	if rb.Hedges == 0 || rb.HedgeWins == 0 {
		t.Errorf("hedging never paid off: %d issued, %d wins", rb.Hedges, rb.HedgeWins)
	}
	if rb.Hedges != rb.HedgeWins+rb.HedgeLosses {
		t.Errorf("hedge legs unaccounted: %d issued != %d wins + %d losses",
			rb.Hedges, rb.HedgeWins, rb.HedgeLosses)
	}
	if rb.DeadlineMiss[array.SLOGold]+rb.DeadlineMiss[array.SLOBatch] == 0 {
		t.Error("a 50ms deadline under an 8x-slow disk missed nothing")
	}
	kinds := map[string]int{}
	for _, ev := range res.ObsEvents {
		kinds[ev.Kind]++
	}
	for _, k := range []string{obs.EvRetry, obs.EvHedge, obs.EvHedgeWin, obs.EvSickOnset, obs.EvSickClear, obs.EvTimeout} {
		if kinds[k] == 0 {
			t.Errorf("no %q events in the retained stream (got %v)", k, kinds)
		}
	}
}

// TestShedBatchOnly drives a cached RAID5 into admission control with a
// tiny queue threshold and checks that shedding hits only the batch
// class while the run still completes and drains.
func TestShedBatchOnly(t *testing.T) {
	p := smallProfile()
	p.Requests = 4000
	p.Duration = 240 * sim.Second
	tr, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{
		Org: array.OrgRAID5, DataDisks: 10, N: 5,
		Spec: geom.Default(), Sync: array.DF,
		Cached: true, CacheMB: 8, Seed: 9,
		Robust: array.RobustConfig{ShedQueue: 2},
	}
	res, err := core.Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	rb := &res.Robust
	if rb.Shed[array.SLOBatch] == 0 {
		t.Error("queue threshold 2 shed nothing")
	}
	if rb.Shed[array.SLOGold] != 0 {
		t.Errorf("admission control shed %d gold-class requests", rb.Shed[array.SLOGold])
	}
}

// TestSickDiskHangCompletes checks the intermittent-hang mode: a drive
// that periodically freezes must stall, not wedge — the run drains and
// the hang windows are counted.
func TestSickDiskHangCompletes(t *testing.T) {
	p := smallProfile()
	p.Requests = 2000
	p.Duration = 120 * sim.Second
	tr, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{
		Org: array.OrgMirror, DataDisks: 10, N: 5,
		Spec: geom.Default(), Sync: array.DF,
		Seed: 9,
		Fault: fault.Config{
			SickDisks: []fault.SickDisk{{
				Disk:      2,
				At:        10 * sim.Second,
				Until:     90 * sim.Second,
				HangEvery: 5 * sim.Second,
				HangFor:   500 * sim.Millisecond,
			}},
		},
	}
	res, err := core.Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fault.Hangs == 0 {
		t.Error("periodic hang schedule never fired")
	}
	if res.Requests != int64(len(tr.Records)) {
		t.Errorf("hangs lost requests: %d/%d completed", res.Requests, len(tr.Records))
	}
}
