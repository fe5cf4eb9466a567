package array

import (
	"raidsim/internal/disk"
	"raidsim/internal/layout"
	"raidsim/internal/obs"
	"raidsim/internal/trace"
)

// parityLogCtrl implements a simplified parity logging organization
// (Stodolsky, Gibson & Holland — cited in the paper's related work §1):
// data is striped RAID5-style, but instead of read-modify-writing the
// parity disk on every small write, the parity-update image (old XOR new
// data) is buffered and appended to a per-disk log region in large
// sequential writes. A background reintegration pass later folds a full
// log into the parity blocks. Small writes thus cost one data RMW instead
// of two RMWs, and the parity traffic is amortized into sequential I/O.
//
// Simplifications versus the full design (documented in DESIGN.md): the
// update buffer is NVRAM (log flushes are asynchronous), log regions are
// the tail 2% of each drive, and reintegration is modeled as three large
// background passes (read log, read touched parity, write parity) whose
// media time matches the log volume rather than tracking each touched
// parity block individually.
type parityLogCtrl struct {
	*common
	lay      *layout.RAID5
	logStart int64 // first log block on every drive
	logCap   int64 // log blocks per drive

	logBuf        int     // parity-update blocks buffered in NVRAM
	flushTo       int     // round-robin target drive for the next flush
	logUsed       []int64 // appended blocks per drive
	reintegrating []bool

	// stats
	LogFlushes     int64
	Reintegrations int64
}

// logFraction is the share of each drive reserved for the parity log.
const logFraction = 0.02

// flushThresholdBlocks is how many buffered parity-update blocks trigger
// a sequential log flush (two tracks' worth on the default geometry).
const flushThresholdBlocks = 12

func newParityLog(c *common, cfg Config) *parityLogCtrl {
	bpd := cfg.Spec.BlocksPerDisk()
	logCap := int64(float64(bpd) * logFraction)
	if logCap < flushThresholdBlocks {
		logCap = flushThresholdBlocks
	}
	dataBPD := bpd - logCap
	lay := layout.NewRAID5(cfg.N, dataBPD, cfg.StripingUnit)
	return &parityLogCtrl{
		common:        c,
		lay:           lay,
		logStart:      dataBPD,
		logCap:        logCap,
		logUsed:       make([]int64, lay.Disks()),
		reintegrating: make([]bool, lay.Disks()),
	}
}

// DataBlocks implements Controller.
func (pl *parityLogCtrl) DataBlocks() int64 { return pl.lay.DataBlocks() }

// Results implements Controller.
func (pl *parityLogCtrl) Results() *Results { return pl.baseResults(OrgParityLog) }

// Submit implements Controller.
func (pl *parityLogCtrl) Submit(r Request) {
	pl.checkRequest(r, pl.lay.DataBlocks())
	start, sp := pl.begin(r.Op != trace.Read)
	if r.Op == trace.Read {
		q := pl.newReq(r, start, sp)
		pl.readRuns(q, q.rb.dataRuns(pl.lay, q.lbas))
		return
	}
	// Writes: data RMW (the old data is needed for the parity-update
	// image) unless the stripe is fully overwritten; no parity disk
	// access in the foreground — the update image goes to the log.
	plan := planUpdate(pl.lay, appendSpan(nil, r.LBA, r.Blocks), nil)
	n := len(plan.dataRuns)
	admitStart := pl.eng.Now()
	pl.buf.Acquire(n, func() {
		if now := pl.eng.Now(); now > admitStart {
			sp.ChildSpan(obs.SpanAdmit, admitStart, now)
		}
		pl.chanXferSpan(r.Blocks, sp, func() {
			done := newLatch(n, func() {
				pl.buf.Release(n)
				pl.finish(r, start, sp)
			})
			for ri, rn := range plan.dataRuns {
				req := &disk.Request{
					StartBlock: rn.start, Blocks: rn.blocks, Write: true,
					Priority: disk.PriNormal,
					RMW:      plan.dataRMW[ri],
					OnDone:   done.done,
				}
				if sp != nil {
					name := "write-data"
					if req.RMW {
						name = "rmw-data"
					}
					req.Span = sp.Child(name, pl.eng.Now())
					req.Span.SetBlocks(rn.blocks)
				}
				pl.disks[rn.disk].Submit(req)
			}
			// One update-image block per touched parity block.
			images := 0
			for _, pr := range plan.parityRuns {
				images += pr.blocks
			}
			pl.appendLog(images)
		})
	})
}

// appendLog buffers parity-update images and flushes them sequentially to
// a drive's log region when the NVRAM buffer fills.
func (pl *parityLogCtrl) appendLog(blocks int) {
	pl.logBuf += blocks
	for pl.logBuf >= flushThresholdBlocks {
		pl.logBuf -= flushThresholdBlocks
		pl.flushLog(flushThresholdBlocks)
	}
}

// flushLog writes one batch to the next drive's log, round-robin; a full
// log triggers reintegration first (the flush then lands in the cleaned
// log).
func (pl *parityLogCtrl) flushLog(blocks int) {
	d := pl.flushTo
	pl.flushTo = (pl.flushTo + 1) % pl.lay.Disks()
	if pl.logUsed[d]+int64(blocks) > pl.logCap {
		pl.reintegrate(d)
	}
	if pl.logUsed[d]+int64(blocks) > pl.logCap {
		// Reintegration in flight; spill to the next drive this round.
		d = pl.flushTo
		pl.flushTo = (pl.flushTo + 1) % pl.lay.Disks()
		if pl.logUsed[d]+int64(blocks) > pl.logCap {
			// Every log saturated: drop to synchronous reintegration
			// semantics by forcing the append after reintegration resets
			// (extremely heavy write loads only).
			pl.reintegrate(d)
			pl.logUsed[d] = 0
		}
	}
	start := pl.logStart + pl.logUsed[d]
	pl.logUsed[d] += int64(blocks)
	pl.LogFlushes++
	var root *obs.Span
	if pl.tr != nil {
		root = pl.tr.StartBackground("log-flush", pl.eng.Now())
		root.SetBlocks(blocks)
	}
	req := &disk.Request{
		StartBlock: start, Blocks: blocks, Write: true,
		Priority: disk.PriBackground, Span: root,
	}
	if root != nil {
		req.OnDone = func() { pl.tr.FinishBackground(root, pl.eng.Now()) }
	}
	pl.disks[d].Submit(req)
}

// reintegrate folds drive d's log into its parity blocks: a sequential
// log read, a gathering read of the touched parity, and the parity
// write-back, all in the background.
func (pl *parityLogCtrl) reintegrate(d int) {
	if pl.reintegrating[d] || pl.logUsed[d] == 0 {
		return
	}
	pl.reintegrating[d] = true
	pl.Reintegrations++
	used := pl.logUsed[d]
	pl.parityAccesses += used
	var root *obs.Span
	opSpan := func(name string) *obs.Span {
		if root == nil {
			return nil
		}
		op := root.Child(name, pl.eng.Now())
		op.SetBlocks(int(used))
		return op
	}
	if pl.tr != nil {
		root = pl.tr.StartBackground("reintegrate", pl.eng.Now())
		root.SetDisk(d)
		root.SetBlocks(int(used))
	}
	// Pass 1: read the log sequentially.
	pl.disks[d].Submit(&disk.Request{
		StartBlock: pl.logStart, Blocks: int(used),
		Priority: disk.PriBackground,
		Span:     opSpan("log-read"),
		OnDone: func() {
			// Pass 2+3: sweep-read and rewrite the touched parity. The
			// touched blocks are scattered; a sorted sweep is modeled as
			// one long pass of equal volume starting mid-disk.
			sweepStart := pl.logStart / 2
			pl.disks[d].Submit(&disk.Request{
				StartBlock: sweepStart, Blocks: int(used),
				Priority: disk.PriBackground,
				Span:     opSpan("parity-read"),
				OnDone: func() {
					pl.disks[d].Submit(&disk.Request{
						StartBlock: sweepStart, Blocks: int(used), Write: true,
						Priority: disk.PriBackground,
						Span:     opSpan("write-parity"),
						OnDone: func() {
							if root != nil {
								pl.tr.FinishBackground(root, pl.eng.Now())
							}
							pl.logUsed[d] = 0
							pl.reintegrating[d] = false
						},
					})
				},
			})
		},
	})
}
