package array

import (
	"testing"

	"raidsim/internal/disk"
	"raidsim/internal/geom"
	"raidsim/internal/layout"
	"raidsim/internal/sim"
	"raidsim/internal/trace"
)

// TestPriorityPoliciesUseHighClass: under RF/PR and DF/PR the parity
// access must overtake queued normal-priority work.
func TestPriorityPoliciesUseHighClass(t *testing.T) {
	for _, pol := range []SyncPolicy{RFPR, DFPR} {
		cfg := testConfig(OrgRAID5, false)
		cfg.Sync = pol
		eng, ctrl := build(t, cfg)
		p := ctrl.(*schemeCtrl)
		lay := p.s.(*parityScheme).lay

		// Fill the parity disk of block 0's stripe with queued reads, then
		// issue the write. With priority, the parity access jumps the queue.
		ploc := lay.Parity(0)
		var lbas []int64
		for l := int64(0); l < 2000 && len(lbas) < 5; l++ {
			if lay.Map(l).Disk == ploc.Disk {
				lbas = append(lbas, l)
			}
		}
		for _, l := range lbas {
			ctrl.Submit(Request{Op: trace.Read, LBA: l, Blocks: 1})
		}
		ctrl.Submit(Request{Op: trace.Write, LBA: 0, Blocks: 1})
		drain(t, eng, ctrl)
		res := ctrl.Results()
		// The write's response must be far below "behind five reads"
		// (~5 x 20ms + RMW): with priority it overtakes.
		if w := res.WriteResp.Mean(); w > 90 {
			t.Errorf("%v: write response %.1f ms suggests the parity access queued behind normal reads", pol, w)
		}
	}
}

// TestUpdateOnDataDoneFiresBeforeParity: with a slow spool-style parity
// issuer, the batch's data-held track buffers (dataBufs) must come back
// when the data lands, strictly before the parity completes and the
// batch reports done.
func TestUpdateOnDataDoneFiresBeforeParity(t *testing.T) {
	cfg := testConfig(OrgRAID5, false)
	eng := sim.New()
	c, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := c.(*schemeCtrl)
	p.buf.Acquire(1, func() {}) // the batch's data buffer, held until dataDone
	held := p.buf.Free()
	var parityAt, doneAt sim.Time
	freeAtParity := -1
	b := p.newBatch(writeOp{pri: disk.PriNormal, onDone: func() { doneAt = eng.Now() }})
	b.plan.build(&b.rb, p.s.(*parityScheme).lay, spanLBAs(0, 1), nil)
	b.policy = RF
	b.parityIssuer = func(pr parityRun, ready func() bool, done func()) {
		// Simulate a slow spool admission.
		eng.After(500*sim.Millisecond, func() {
			parityAt = eng.Now()
			freeAtParity = p.buf.Free()
			done()
		})
	}
	b.dataBufs = 1
	b.executeUpdate()
	eng.Run()
	if parityAt == 0 || doneAt == 0 {
		t.Fatalf("callbacks missing: parity=%d done=%d", parityAt, doneAt)
	}
	if freeAtParity != held+1 {
		t.Fatalf("%d buffers free when parity completed, want %d: the data buffer was not released first", freeAtParity, held+1)
	}
	if parityAt > doneAt {
		t.Fatalf("ordering wrong: parity=%d done=%d", parityAt, doneAt)
	}
	if p.buf.Free() != p.buf.Cap() {
		t.Fatalf("%d of %d buffers free after the batch, want all", p.buf.Free(), p.buf.Cap())
	}
}

// TestUpdateStaggerSpacesDataRuns: staggered data runs start at the
// configured spacing.
func TestUpdateStaggerSpacesDataRuns(t *testing.T) {
	cfg := testConfig(OrgRAID5, false)
	eng := sim.New()
	c, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := c.(*schemeCtrl)
	// Four separate blocks on different disks -> four data runs.
	lay := p.s.(*parityScheme).lay.(*layout.RAID5)
	lbas := []int64{0, 1, 2, 3}
	b := p.newBatch(writeOp{pri: disk.PriNormal})
	b.plan.build(&b.rb, lay, lbas, func(int64) bool { return true })
	plan := &b.plan
	if len(plan.dataRuns) < 2 {
		t.Skip("layout merged the runs; stagger unobservable")
	}
	var starts []sim.Time
	for ri := range plan.dataRuns {
		_ = ri
	}
	// Wrap OnStart via disk queue-wait: instead observe disk access
	// start times through per-disk utilization begin. Simpler: record
	// submission effect via engine timestamps of run issuance using the
	// stagger arithmetic: issue i happens at stagger*i.
	const stag = 20 * sim.Millisecond
	b.policy = RF
	b.stagger = stag
	b.w.onDone = func() { starts = append(starts, eng.Now()) }
	nd := len(plan.dataRuns)
	b.executeUpdate()
	eng.Run()
	// Indirect check: total makespan must be at least stagger*(runs-1).
	if eng.Now() < stag*sim.Time(nd-1) {
		t.Fatalf("makespan %d shorter than stagger span", eng.Now())
	}
}

// TestRMWAbortRequeues: an RMW whose Ready stays false past the hold
// bound must abort, requeue behind other work, and eventually complete.
func TestRMWAbortRequeues(t *testing.T) {
	eng := sim.New()
	spec := geom.Default()
	d, err := disk.New(eng, 0, spec, geom.MustCalibrateSeek(spec), 0)
	if err != nil {
		t.Fatal(err)
	}
	ready := false
	var rmwDone, otherDone sim.Time
	d.Submit(&disk.Request{
		StartBlock: 0, Blocks: 1, Write: true, RMW: true,
		Priority: disk.PriNormal,
		Ready:    func() bool { return ready },
		OnDone:   func() { rmwDone = eng.Now() },
	})
	// Another request queued behind; the abort must let it through.
	d.Submit(&disk.Request{
		StartBlock: 180 * 100, Blocks: 1, Priority: disk.PriNormal,
		OnDone: func() { otherDone = eng.Now() },
	})
	// Readiness arrives far later than the 8-rotation hold bound.
	eng.At(2*sim.Second, func() { ready = true })
	eng.Run()
	if d.S.RMWAborts == 0 {
		t.Fatal("RMW never aborted despite unready inputs")
	}
	if otherDone == 0 || rmwDone == 0 {
		t.Fatal("requests did not complete")
	}
	if otherDone > rmwDone {
		t.Fatalf("queued read (%d) should finish before the starved RMW (%d)", otherDone, rmwDone)
	}
	if d.S.Accesses != 2 {
		t.Fatalf("access count %d, want 2 (retries compensated)", d.S.Accesses)
	}
}

// TestDiskSchedConfigPlumbing: the controller passes the configured
// discipline down to its drives.
func TestDiskSchedConfigPlumbing(t *testing.T) {
	cfg := testConfig(OrgBase, false)
	cfg.DiskSched = disk.SSTF
	eng, ctrl := build(t, cfg)
	b := ctrl.(*schemeCtrl)
	// Indirect but deterministic: SSTF must reorder a seek-heavy queue,
	// reducing total seek distance versus FIFO.
	run := func(ctrl Controller, eng *sim.Engine) int64 {
		// A scrambled (non-monotonic) pattern, so FIFO order seeks badly.
		for i := 0; i < 30; i++ {
			lba := (int64(i)*386243 + 12345) % ctrl.DataBlocks()
			ctrl.Submit(Request{Op: trace.Read, LBA: lba, Blocks: 1})
		}
		drain(t, eng, ctrl)
		var sum int64
		switch c := ctrl.(type) {
		case *schemeCtrl:
			for _, d := range c.disks {
				sum += d.S.SeekDistSum
			}
		}
		return sum
	}
	sstfSeek := run(ctrl, eng)
	_ = b

	cfg2 := testConfig(OrgBase, false)
	eng2, ctrl2 := build(t, cfg2)
	fifoSeek := run(ctrl2, eng2)
	if sstfSeek >= fifoSeek {
		t.Fatalf("SSTF seek %d not below FIFO %d — scheduling not plumbed", sstfSeek, fifoSeek)
	}
}

// TestSyncSpindlesGivesCommonPhase: with the flag set, all drives in an
// array share a rotational phase (identical latency for the same target
// from the same start state).
func TestSyncSpindlesGivesCommonPhase(t *testing.T) {
	cfg := testConfig(OrgBase, false)
	cfg.SyncSpindles = true
	eng, ctrl := build(t, cfg)
	b := ctrl.(*schemeCtrl)
	// Same physical block on each disk, issued simultaneously from idle:
	// identical phases mean identical *disk* service times (completions
	// still spread out over the shared channel). Each disk serves one
	// access, so its busy time is that access's service time.
	bpd := cfg.Spec.BlocksPerDisk()
	for d := 0; d < 4; d++ {
		ctrl.Submit(Request{Op: trace.Read, LBA: int64(d)*bpd + 42, Blocks: 1})
	}
	drain(t, eng, ctrl)
	first := b.disks[0].S.Util.BusyTime(eng.Now())
	for i := 1; i < 4; i++ {
		if got := b.disks[i].S.Util.BusyTime(eng.Now()); got != first {
			t.Fatalf("synchronized spindles served identical targets in different times: disk %d %d vs %d ns", i, got, first)
		}
	}

	// And without the flag, phases differ.
	cfg2 := testConfig(OrgBase, false)
	eng2, ctrl2 := build(t, cfg2)
	b2 := ctrl2.(*schemeCtrl)
	for d := 0; d < 4; d++ {
		ctrl2.Submit(Request{Op: trace.Read, LBA: int64(d)*bpd + 42, Blocks: 1})
	}
	drain(t, eng2, ctrl2)
	allSame := true
	first2 := b2.disks[0].S.Util.BusyTime(eng2.Now())
	for i := 1; i < 4; i++ {
		if b2.disks[i].S.Util.BusyTime(eng2.Now()) != first2 {
			allSame = false
		}
	}
	if allSame {
		t.Fatal("independent spindles landed on identical phases (suspicious)")
	}
}
