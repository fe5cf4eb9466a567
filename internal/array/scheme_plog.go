package array

import (
	"raidsim/internal/disk"
	"raidsim/internal/layout"
	"raidsim/internal/obs"
)

// plogScheme implements a simplified parity logging organization
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
type plogScheme struct {
	noRedundancy
	lay      *layout.RAID5
	logStart int64 // first log block on every drive
	logCap   int64 // log blocks per drive

	logBuf        int     // parity-update blocks buffered in NVRAM
	flushTo       int     // round-robin target drive for the next flush
	logUsed       []int64 // appended blocks per drive
	reintegrating []bool

	logFlushes     int64
	reintegrations int64

	logImagesFn func(*batchRec)
}

// logFraction is the share of each drive reserved for the parity log.
const logFraction = 0.02

// flushThresholdBlocks is how many buffered parity-update blocks trigger
// a sequential log flush (two tracks' worth on the default geometry).
const flushThresholdBlocks = 12

func newPlogScheme(c *common, cfg Config) *plogScheme {
	bpd := cfg.Spec.BlocksPerDisk()
	logCap := max(int64(float64(bpd)*logFraction), flushThresholdBlocks)
	dataBPD := bpd - logCap
	lay := layout.NewRAID5(cfg.N, dataBPD, cfg.StripingUnit)
	s := &plogScheme{
		noRedundancy:  noRedundancy{c},
		lay:           lay,
		logStart:      dataBPD,
		logCap:        logCap,
		logUsed:       make([]int64, lay.Disks()),
		reintegrating: make([]bool, lay.Disks()),
	}
	s.logImagesFn = s.logImages
	return s
}

func (s *plogScheme) fetchRuns(rb *runBuf, lbas []int64) []run { return rb.dataRuns(s.lay, lbas) }

// write issues the batch's data legs — read-modify-writes, since the old
// data feeds the parity-update image, unless the stripe is fully
// overwritten — with no parity disk access in the foreground: once the
// legs are out, the update images go to the log.
func (s *plogScheme) write(w writeOp) {
	b := s.c.newBatch(w)
	b.plan.build(&b.rb, s.lay, w.lbas, w.hasOld)
	b.rmw, b.afterIssue = b.plan.dataRMW, s.logImagesFn
	b.plainWrite(b.plan.dataRuns)
}

// logImages logs one update-image block per parity block the batch
// touches.
func (s *plogScheme) logImages(b *batchRec) {
	images := 0
	for _, pr := range b.plan.parityRuns {
		images += pr.blocks
	}
	s.appendLog(images)
}

// appendLog buffers parity-update images and flushes them.
func (s *plogScheme) appendLog(blocks int) {
	s.logBuf += blocks
	s.flushBuffered()
}

// flushBuffered flushes the NVRAM buffer sequentially to the logs, one
// batch per flushThresholdBlocks held, until less than a batch is left
// or every log is saturated.
func (s *plogScheme) flushBuffered() {
	for s.logBuf >= flushThresholdBlocks && s.flushLog(flushThresholdBlocks) {
		s.logBuf -= flushThresholdBlocks
	}
}

// flushLog writes one batch to the next drive's log, round-robin. A full
// log starts reintegrating and the batch spills to the following drive;
// if that log is full too, every log is saturated (extremely heavy write
// loads only) and flushLog reports false: the batch stays in NVRAM until
// a reintegration frees room.
func (s *plogScheme) flushLog(blocks int) bool {
	c := s.c
	d := s.nextLog()
	if s.logUsed[d]+int64(blocks) > s.logCap {
		s.reintegrate(d)
		d = s.nextLog()
		if s.logUsed[d]+int64(blocks) > s.logCap {
			s.reintegrate(d)
			return false
		}
	}
	start := s.logStart + s.logUsed[d]
	s.logUsed[d] += int64(blocks)
	s.logFlushes++
	var root *obs.Span
	if c.tr != nil {
		root = c.tr.StartBackground("log-flush", c.eng.Now())
		root.SetBlocks(blocks)
	}
	req := &disk.Request{
		StartBlock: start, Blocks: blocks, Write: true,
		Priority: disk.PriBackground, Span: root,
	}
	if root != nil {
		req.OnDone = func() { c.tr.FinishBackground(root, c.eng.Now()) }
	}
	c.disks[d].Submit(req)
	return true
}

// nextLog returns the round-robin flush target and advances it.
func (s *plogScheme) nextLog() int {
	d := s.flushTo
	s.flushTo = (d + 1) % len(s.logUsed)
	return d
}

// reintegrate folds drive d's log into its parity blocks: a sequential
// log read, a gathering read of the touched parity, and the parity
// write-back, all in the background. It retires only the blocks it
// read, then lets any batch held in NVRAM flush into the freed log.
func (s *plogScheme) reintegrate(d int) {
	if s.reintegrating[d] || s.logUsed[d] == 0 {
		return
	}
	c := s.c
	s.reintegrating[d] = true
	s.reintegrations++
	used := s.logUsed[d]
	c.parityAccesses += used
	var root *obs.Span
	opSpan := func(name string) *obs.Span {
		if root == nil {
			return nil
		}
		op := root.Child(name, c.eng.Now())
		op.SetBlocks(int(used))
		return op
	}
	if c.tr != nil {
		root = c.tr.StartBackground("reintegrate", c.eng.Now())
		root.SetDisk(d)
		root.SetBlocks(int(used))
	}
	// Pass 1: read the log sequentially.
	c.disks[d].Submit(&disk.Request{
		StartBlock: s.logStart, Blocks: int(used),
		Priority: disk.PriBackground,
		Span:     opSpan("log-read"),
		OnDone: func() {
			// Pass 2+3: sweep-read and rewrite the touched parity. The
			// touched blocks are scattered; a sorted sweep is modeled as
			// one long pass of equal volume starting mid-disk.
			sweepStart := s.logStart / 2
			c.disks[d].Submit(&disk.Request{
				StartBlock: sweepStart, Blocks: int(used),
				Priority: disk.PriBackground,
				Span:     opSpan("parity-read"),
				OnDone: func() {
					c.disks[d].Submit(&disk.Request{
						StartBlock: sweepStart, Blocks: int(used), Write: true,
						Priority: disk.PriBackground,
						Span:     opSpan("write-parity"),
						OnDone: func() {
							if root != nil {
								c.tr.FinishBackground(root, c.eng.Now())
							}
							s.logUsed[d] -= used
							s.reintegrating[d] = false
							if s.logBuf >= flushThresholdBlocks {
								s.flushTo = d
								s.flushBuffered()
							}
						},
					})
				},
			})
		},
	})
}
