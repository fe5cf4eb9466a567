package disk

import (
	"math"
	"testing"

	"raidsim/internal/geom"
	"raidsim/internal/sim"
)

func newTestDisk(t *testing.T, phase float64) (*sim.Engine, *Disk, geom.Spec) {
	t.Helper()
	eng := sim.New()
	spec := geom.Default()
	seek := geom.MustCalibrateSeek(spec)
	d, err := New(eng, 0, spec, seek, phase)
	if err != nil {
		t.Fatal(err)
	}
	return eng, d, spec
}

// TestPlainReadTiming checks the exact service decomposition: seek +
// rotational latency + media transfer, from a known arm position and
// rotational phase.
func TestPlainReadTiming(t *testing.T) {
	eng, d, spec := newTestDisk(t, 0)
	// Target: cylinder 100, head 0, track block 2.
	target := spec.FromCHS(geom.CHS{Cylinder: 100, Head: 0, Block: 2})
	var doneAt sim.Time
	d.Submit(&Request{
		StartBlock: target, Blocks: 1, Priority: PriNormal,
		OnDone: func() { doneAt = eng.Now() },
	})
	eng.Run()

	seek := geom.MustCalibrateSeek(spec).Time(100)
	arrive := seek
	// Phase 0 at t=0: angle(t) = (t mod rot)/rot. Target angle = 2/6.
	rot := spec.RotationTime()
	angleNow := float64(arrive%rot) / float64(rot)
	frac := 2.0/6.0 - angleNow
	if frac < 0 {
		frac++
	}
	latency := sim.Time(frac * float64(rot))
	want := arrive + latency + spec.BlockTransferTime()
	if diff := doneAt - want; diff < -1000 || diff > 1000 {
		t.Fatalf("read finished at %d, want %d (diff %dns)", doneAt, want, diff)
	}
	if d.S.Reads != 1 || d.S.Accesses != 1 || d.S.BlocksRead != 1 {
		t.Fatalf("stats wrong: %+v", d.S)
	}
}

// TestRMWTiming: the write pass lands exactly one rotation after the read
// pass began, so total time = seek + latency + rotation + transfer.
func TestRMWTiming(t *testing.T) {
	eng, d, spec := newTestDisk(t, 0)
	target := spec.FromCHS(geom.CHS{Cylinder: 0, Head: 0, Block: 0})
	var readDoneAt, doneAt sim.Time
	d.Submit(&Request{
		StartBlock: target, Blocks: 1, Write: true, RMW: true,
		Priority:   PriNormal,
		OnReadDone: func() { readDoneAt = eng.Now() },
		OnDone:     func() { doneAt = eng.Now() },
	})
	eng.Run()
	// Cylinder 0, phase 0, block 0: no seek, no latency.
	bt := spec.BlockTransferTime()
	rot := spec.RotationTime()
	if readDoneAt != bt {
		t.Fatalf("old-data read done at %d, want %d", readDoneAt, bt)
	}
	want := rot + bt // write pass starts at rot (head back at angle 0)
	if doneAt != want {
		t.Fatalf("RMW done at %d, want %d", doneAt, want)
	}
	if d.S.RMWs != 1 || d.S.HeldRotations != 0 {
		t.Fatalf("stats wrong: %+v", d.S)
	}
}

// TestRMWHeldRotations: when the inputs are not ready, whole extra
// rotations are spent, exactly as section 3.3 describes.
func TestRMWHeldRotations(t *testing.T) {
	eng, d, spec := newTestDisk(t, 0)
	ready := false
	var doneAt sim.Time
	d.Submit(&Request{
		StartBlock: 0, Blocks: 1, Write: true, RMW: true,
		Priority: PriNormal,
		Ready:    func() bool { return ready },
		OnDone:   func() { doneAt = eng.Now() },
	})
	rot := spec.RotationTime()
	// Allow readiness only after 2.5 rotations: attempts at 1 and 2
	// rotations fail, the attempt at 3 succeeds.
	eng.At(sim.Time(2.5*float64(rot)), func() { ready = true })
	eng.Run()
	want := 3*rot + spec.BlockTransferTime()
	if doneAt != want {
		t.Fatalf("held RMW done at %d, want %d", doneAt, want)
	}
	if d.S.HeldRotations != 2 {
		t.Fatalf("held rotations = %d, want 2", d.S.HeldRotations)
	}
}

// TestPriorityOrder: a high-priority request bypasses queued normal ones,
// and background yields to both.
func TestPriorityOrder(t *testing.T) {
	eng, d, _ := newTestDisk(t, 0)
	var order []string
	submit := func(name string, pri Priority) {
		d.Submit(&Request{
			StartBlock: 0, Blocks: 1, Priority: pri,
			OnDone: func() { order = append(order, name) },
		})
	}
	// First request occupies the disk; the rest queue.
	submit("first", PriNormal)
	submit("bg", PriBackground)
	submit("normal", PriNormal)
	submit("high", PriHigh)
	eng.Run()
	want := []string{"first", "high", "normal", "bg"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("service order %v, want %v", order, want)
		}
	}
}

// TestFIFOWithinClass: same-priority requests serve in arrival order.
func TestFIFOWithinClass(t *testing.T) {
	eng, d, _ := newTestDisk(t, 0)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		d.Submit(&Request{
			StartBlock: int64(i * 1000), Blocks: 1, Priority: PriNormal,
			OnDone: func() { order = append(order, i) },
		})
	}
	eng.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
}

// TestMultiblockTransfer: an n-block run costs n block times, plus a
// track-to-track seek when it crosses a cylinder boundary.
func TestMultiblockTransfer(t *testing.T) {
	eng, d, spec := newTestDisk(t, 0)
	var within, crossing sim.Time
	// 6 blocks entirely inside cylinder 0 (180 blocks per cylinder).
	d.Submit(&Request{StartBlock: 0, Blocks: 6, Priority: PriNormal,
		OnDone: func() { within = eng.Now() }})
	eng.Run()
	if want := 6 * spec.BlockTransferTime(); within != want {
		t.Fatalf("within-cylinder transfer %d, want %d", within, want)
	}

	// A run crossing from cylinder 0 into cylinder 1.
	eng2 := sim.New()
	d2, _ := New(eng2, 0, spec, geom.MustCalibrateSeek(spec), 0)
	start := int64(spec.BlocksPerCylinder() - 3)
	startAngle := spec.AngleOfBlock(spec.ToCHS(start).Block)
	d2.Submit(&Request{StartBlock: start, Blocks: 6, Priority: PriNormal,
		OnDone: func() { crossing = eng2.Now() }})
	eng2.Run()
	rot := spec.RotationTime()
	latency := sim.Time(startAngle * float64(rot)) // phase 0, t=0
	want := latency + 6*spec.BlockTransferTime() + geom.MustCalibrateSeek(spec).Time(1)
	if crossing != want {
		t.Fatalf("crossing transfer done at %d, want %d", crossing, want)
	}
	if d2.Cylinder() != 1 {
		t.Fatalf("arm at cylinder %d after crossing run, want 1", d2.Cylinder())
	}
}

// TestTransferSectorsOverride: a sector override on a multi-block run,
// even one crossing into the next cylinder, transfers for exactly
// sectors × sector time and leaves the arm on the start cylinder. A
// negative override, or one on an RMW, is rejected.
func TestTransferSectorsOverride(t *testing.T) {
	eng, d, spec := newTestDisk(t, 0)
	start := int64(spec.BlocksPerCylinder() - 3)
	startAngle := spec.AngleOfBlock(spec.ToCHS(start).Block)
	var doneAt sim.Time
	d.Submit(&Request{StartBlock: start, Blocks: 6, TransferSectors: 7, Priority: PriNormal,
		OnDone: func() { doneAt = eng.Now() }})
	eng.Run()
	xfer := 7 * spec.SectorTime()
	if d.S.TransferTime != xfer {
		t.Fatalf("transfer time %d, want 7 sectors = %d", d.S.TransferTime, xfer)
	}
	latency := sim.Time(startAngle * float64(spec.RotationTime())) // phase 0, t=0
	if want := latency + xfer; doneAt != want {
		t.Fatalf("done at %d, want %d", doneAt, want)
	}
	if d.Cylinder() != 0 || d.S.BlocksRead != 6 {
		t.Fatalf("arm at cylinder %d, %d blocks read; want 0 and 6", d.Cylinder(), d.S.BlocksRead)
	}
	for i, r := range []*Request{
		{StartBlock: 0, Blocks: 2, TransferSectors: -1},
		{StartBlock: 0, Blocks: 2, TransferSectors: 3, Write: true, RMW: true},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad override %d accepted", i)
				}
			}()
			d.Submit(r)
		}()
	}
}

// TestQueueWaitAccounting: the second request's queue wait equals the
// first one's residual service. Both arrive at time 0 and the first
// never waits, so the summed queue time is the first completion time.
func TestQueueWaitAccounting(t *testing.T) {
	eng, d, _ := newTestDisk(t, 0)
	var firstDone sim.Time
	d.Submit(&Request{StartBlock: 0, Blocks: 1, Priority: PriNormal,
		OnDone: func() { firstDone = eng.Now() }})
	var secondStartWait sim.Time
	d.Submit(&Request{StartBlock: 0, Blocks: 1, Priority: PriNormal,
		OnStart: func() { secondStartWait = eng.Now() }})
	eng.Run()
	if secondStartWait != firstDone {
		t.Fatalf("second start %d, want first completion %d", secondStartWait, firstDone)
	}
	if d.S.QueueTime != firstDone {
		t.Fatalf("queue time %d, want first completion %d", d.S.QueueTime, firstDone)
	}
}

// TestUtilizationTracksService: utilization equals busy time over the
// observation window.
func TestUtilizationTracksService(t *testing.T) {
	eng, d, _ := newTestDisk(t, 0)
	var doneAt sim.Time
	d.Submit(&Request{StartBlock: 0, Blocks: 1, Priority: PriNormal,
		OnDone: func() { doneAt = eng.Now() }})
	eng.Run()
	if got := d.S.Util.BusyTime(doneAt); got != doneAt {
		t.Fatalf("busy %d of %d", got, doneAt)
	}
}

// TestSubmitValidation: malformed requests panic (controller bugs).
func TestSubmitValidation(t *testing.T) {
	_, d, spec := newTestDisk(t, 0)
	bad := []*Request{
		{StartBlock: 0, Blocks: 0},
		{StartBlock: -1, Blocks: 1},
		{StartBlock: spec.BlocksPerDisk(), Blocks: 1},
		{StartBlock: spec.BlocksPerDisk() - 1, Blocks: 2},
		{StartBlock: 0, Blocks: 1, RMW: true, Write: false},
		{StartBlock: 0, Blocks: 1, Priority: Priority(99)},
	}
	for i, r := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad request %d accepted", i)
				}
			}()
			d.Submit(r)
		}()
	}
}

// TestPhaseAffectsLatency: different rotational phases give different
// (but bounded) latencies.
func TestPhaseAffectsLatency(t *testing.T) {
	spec := geom.Default()
	rot := spec.RotationTime()
	var times []sim.Time
	for _, phase := range []float64{0, 0.25, 0.5, 0.75} {
		eng := sim.New()
		d, _ := New(eng, 0, spec, geom.MustCalibrateSeek(spec), phase)
		var done sim.Time
		d.Submit(&Request{StartBlock: 0, Blocks: 1, Priority: PriNormal,
			OnDone: func() { done = eng.Now() }})
		eng.Run()
		times = append(times, done)
	}
	for i, a := range times {
		if a < spec.BlockTransferTime() || a > rot+spec.BlockTransferTime() {
			t.Fatalf("phase case %d: completion %d outside [transfer, rot+transfer]", i, a)
		}
	}
	if times[0] == times[1] && times[1] == times[2] {
		t.Fatal("latency should vary with phase")
	}
}

// TestDerivedGeometryMatchesSpec: the geometry New derives once gives
// the same cylinder, block within track, start angle and transfer
// duration as geom.Spec computes per call, at every track and cylinder
// boundary and the last block, for drives of different shapes.
func TestDerivedGeometryMatchesSpec(t *testing.T) {
	smallBlocks := geom.Default()
	smallBlocks.BlockBytes = 512
	wideTracks := geom.Default()
	wideTracks.SectorsPerTrack = 64
	for _, spec := range []geom.Spec{geom.Default(), smallBlocks, wideTracks} {
		seek := geom.MustCalibrateSeek(spec)
		d, err := New(sim.New(), 0, spec, seek, 0)
		if err != nil {
			t.Fatal(err)
		}
		if d.rot != spec.RotationTime() || d.blockXfer != spec.BlockTransferTime() ||
			d.sectorXfer != spec.SectorTime() || d.seek1 != seek.Time(1) || d.bpd != spec.BlocksPerDisk() {
			t.Fatalf("%+v: derived timing or capacity differs from the spec", spec)
		}
		bpt := int64(spec.BlocksPerTrack())
		check := func(b int64) {
			want := spec.ToCHS(b)
			cyl, tb := d.chs(b)
			if cyl != want.Cylinder || tb != want.Block || d.CylinderOf(b) != want.Cylinder {
				t.Fatalf("block %d: derived (cyl %d, block %d), spec %+v", b, cyl, tb, want)
			}
			if got, w := d.angleOf(tb), spec.AngleOfBlock(want.Block); math.Float64bits(got) != math.Float64bits(w) {
				t.Fatalf("block %d: angle %v, spec %v", b, got, w)
			}
			for _, n := range []int64{1, 2, bpt + 1} {
				if b+n > spec.BlocksPerDisk() {
					continue
				}
				endCyl := spec.ToCHS(b + n - 1).Cylinder
				dur := sim.Time(n)*spec.BlockTransferTime() + sim.Time(endCyl-want.Cylinder)*seek.Time(1)
				if p := d.planTransfer(b, int(n)); p.duration != dur || p.endCyl != endCyl {
					t.Fatalf("block %d, %d blocks: transfer %+v, spec %d ending on cylinder %d", b, n, p, dur, endCyl)
				}
			}
		}
		for b := int64(0); b < spec.BlocksPerDisk(); b += bpt {
			// b starts a track (and every Heads-th one a cylinder).
			check(b)
			if b > 0 {
				check(b - 1)
			}
			check(b + 1)
		}
		check(spec.BlocksPerDisk() - 1)

		for _, r := range []*Request{
			{StartBlock: -1, Blocks: 1},
			{StartBlock: spec.BlocksPerDisk(), Blocks: 1},
			{StartBlock: spec.BlocksPerDisk() - 1, Blocks: 2},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("request [%d,+%d) outside the drive accepted", r.StartBlock, r.Blocks)
					}
				}()
				d.Submit(r)
			}()
		}
	}
}

// TestRequestReusableFromOnDone pins the contract pooled callers rely
// on: the drive never reads a Request after its OnDone returns, so
// OnDone may resubmit the very same Request — after a normal completion
// and after a failed drive drops it.
func TestRequestReusableFromOnDone(t *testing.T) {
	eng, d, _ := newTestDisk(t, 0)
	r := &Request{StartBlock: 0, Blocks: 1, Write: true, RMW: true, Priority: PriNormal}
	done, reads := 0, 0
	r.OnReadDone = func() { reads++ }
	r.OnDone = func() {
		done++
		if done < 3 {
			r.StartBlock += 1000
			d.Submit(r)
		}
	}
	d.Submit(r)
	eng.Run()
	if done != 3 || reads != 3 || d.S.RMWs != 3 || d.S.BlocksWritten != 3 {
		t.Fatalf("completions %d, old-data reads %d, RMWs %d, blocks written %d; want 3 each",
			done, reads, d.S.RMWs, d.S.BlocksWritten)
	}

	// Drop path: r waits behind an access in service when the drive
	// fails; each drop's OnDone resubmits it to the dead drive.
	eng, d, _ = newTestDisk(t, 0)
	d.Submit(&Request{StartBlock: 0, Blocks: 1, Priority: PriNormal})
	r = &Request{StartBlock: 500, Blocks: 1, Priority: PriNormal}
	done = 0
	r.OnDone = func() {
		done++
		if done < 3 {
			d.Submit(r)
		}
	}
	d.Submit(r)
	d.Fail()
	eng.Run()
	if done != 3 || d.S.Dropped != 3 {
		t.Fatalf("completions %d, drops %d; want 3 each", done, d.S.Dropped)
	}
}
