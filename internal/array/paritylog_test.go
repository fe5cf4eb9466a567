package array

import (
	"testing"

	"raidsim/internal/sim"
	"raidsim/internal/trace"
)

func TestParityLogWriteSkipsParityDisk(t *testing.T) {
	cfg := testConfig(OrgParityLog, false)
	eng, ctrl := build(t, cfg)
	pl := ctrl.(*schemeCtrl).s.(*plogScheme)
	ctrl.Submit(Request{Op: trace.Write, LBA: 0, Blocks: 1})
	drain(t, eng, ctrl)
	var rmws int64
	for _, d := range pl.c.disks {
		rmws += d.S.RMWs
	}
	// Exactly one RMW: the data disk. No parity disk access.
	if rmws != 1 {
		t.Fatalf("parity-logged write did %d RMWs, want 1 (data only)", rmws)
	}
	if pl.logBuf != 1 {
		t.Fatalf("update image not buffered: logBuf=%d", pl.logBuf)
	}
}

func TestParityLogFlushesSequentially(t *testing.T) {
	cfg := testConfig(OrgParityLog, false)
	eng, ctrl := build(t, cfg)
	pl := ctrl.(*schemeCtrl).s.(*plogScheme)
	// Enough single-block writes to trigger flushes.
	for i := 0; i < 3*flushThresholdBlocks; i++ {
		ctrl.Submit(Request{Op: trace.Write, LBA: int64(i * 5), Blocks: 1})
	}
	drain(t, eng, ctrl)
	if pl.logFlushes < 2 {
		t.Fatalf("expected several log flushes, got %d", pl.logFlushes)
	}
	var used int64
	for _, u := range pl.logUsed {
		used += u
	}
	if used == 0 {
		t.Fatal("no log blocks consumed")
	}
	// Flushed writes land inside the log region.
	for d, u := range pl.logUsed {
		if u > pl.logCap {
			t.Fatalf("disk %d log overflow: %d > %d", d, u, pl.logCap)
		}
	}
}

func TestParityLogWritesCheaperThanRAID5(t *testing.T) {
	writeResp := func(org Org) float64 {
		cfg := testConfig(org, false)
		eng, ctrl := build(t, cfg)
		for i := 0; i < 50; i++ {
			ctrl.Submit(Request{Op: trace.Write, LBA: int64(i * 97), Blocks: 1})
		}
		drain(t, eng, ctrl)
		return ctrl.Results().WriteResp.Mean()
	}
	r5 := writeResp(OrgRAID5)
	plog := writeResp(OrgParityLog)
	if plog >= r5 {
		t.Fatalf("parity logging writes (%.2f ms) not cheaper than RAID5 (%.2f ms)", plog, r5)
	}
}

func TestParityLogReintegration(t *testing.T) {
	cfg := testConfig(OrgParityLog, false)
	eng, ctrl := build(t, cfg)
	pl := ctrl.(*schemeCtrl).s.(*plogScheme)
	// Shrink the logs so reintegration triggers quickly.
	pl.logCap = 2 * flushThresholdBlocks
	for i := 0; i < 400; i++ {
		i := i
		eng.At(int64(i)*5e6, func() {
			ctrl.Submit(Request{Op: trace.Write, LBA: int64(i * 13), Blocks: 1})
		})
	}
	drain(t, eng, ctrl)
	eng.RunFor(60e9) // let background reintegration finish
	if pl.reintegrations == 0 {
		t.Fatal("log never reintegrated")
	}
	for d, r := range pl.reintegrating {
		if r {
			t.Fatalf("disk %d stuck reintegrating", d)
		}
	}
}

func TestParityLogRejectsCached(t *testing.T) {
	cfg := testConfig(OrgParityLog, true)
	if _, err := New(sim.New(), cfg); err == nil {
		t.Fatal("cached parity logging accepted")
	}
}

// TestParityLogSaturationKeepsImages floods a tiny array whose logs hold
// one flush each, so every log saturates while reintegrations are in
// flight. Every flushed update image must end up reintegrated into
// parity or still logged, and once the background work settles no more
// than a partial flush may remain buffered in NVRAM.
func TestParityLogSaturationKeepsImages(t *testing.T) {
	cfg := testConfig(OrgParityLog, false)
	cfg.Spec.Cylinders, cfg.Spec.Heads = 20, 2
	eng, ctrl := build(t, cfg)
	pl := ctrl.(*schemeCtrl).s.(*plogScheme)
	for i := 0; i < 2000; i++ {
		ctrl.Submit(Request{Op: trace.Write, LBA: int64(i*7) % ctrl.DataBlocks(), Blocks: 1})
	}
	drain(t, eng, ctrl)
	eng.RunFor(3600 * sim.Second) // let background reintegration finish
	for d, r := range pl.reintegrating {
		if r {
			t.Fatalf("disk %d still reintegrating", d)
		}
	}
	flushed := pl.logFlushes * flushThresholdBlocks
	var logged int64
	for _, u := range pl.logUsed {
		logged += u
	}
	reintegrated := ctrl.Results().ParityAccesses
	if flushed != reintegrated+logged {
		t.Fatalf("%d flushes put %d blocks in the logs, but %d were reintegrated and %d are still logged",
			pl.logFlushes, flushed, reintegrated, logged)
	}
	if pl.logBuf >= flushThresholdBlocks {
		t.Fatalf("%d update-image blocks still held in NVRAM", pl.logBuf)
	}
	t.Logf("%d flushes: %d blocks reintegrated, %d still logged", pl.logFlushes, reintegrated, logged)
}
