package array

import (
	"raidsim/internal/disk"
	"raidsim/internal/fault"
	"raidsim/internal/obs"
	"raidsim/internal/sim"
	"raidsim/internal/stats"
)

// faultState is the controller side of fault injection: which slots are
// dead or rebuilding and the accounting the fault report is built from.
// The organization-specific degraded-mode behavior lives in the scheme
// (onFail / rebuildSources / readFallback); common dispatches to it.
// Every common carries a faultState (with allocated slices) so the hot
// path can test fs.nfailed without a nil check; fs.inj stays nil when no
// faults are configured.
type faultState struct {
	inj        *fault.Injector
	failed     []bool      // slot is not readable (dead, or spare mid-rebuild)
	rebuilding []bool      // slot holds a spare being swept; writes go to it
	sweeps     []*sweepRec // per-slot rebuild sweeps (nil until the slot first rebuilds)
	srcs       []int       // rebuildSources buffer, reused by every call
	nfailed    int
	spares     int

	// onCacheFail handles NVRAM cache death (cached controllers only).
	onCacheFail func()

	degraded stats.Windows

	failures           int64
	cacheFailures      int64
	sparesUsed         int64
	rebuilds           int64
	rebuildBusy        sim.Time
	dataLossEvents     int64
	lostReadBlocks     int64
	lostWriteBlocks    int64
	dirtyLost          int64
	sectorErrors       int64
	sectorRetries      int64
	sectorReconstructs int64
	failoverReads      int64

	// Sick-disk accounting (drives that limp without dying).
	sickOnsets      int64
	sickClears      int64
	hangs           int64
	transientErrors int64
}

// FaultResults snapshots the fault-injection accounting for reports.
type FaultResults struct {
	Enabled       bool
	Failures      int64 // disk failures injected
	CacheFailures int64
	SparesUsed    int64
	Rebuilds      int64    // rebuild sweeps completed
	RebuildTime   sim.Time // total wall time spent rebuilding
	RebuildActive bool     // a sweep was still running at snapshot time

	DegradedTime    sim.Time // total time with >= 1 slot unreadable
	DegradedWindows int
	DegradedActive  bool

	DataLossEvents     int64 // failures that lost data (no surviving redundancy)
	LostReadBlocks     int64 // reads answered with unrecoverable blocks
	LostWriteBlocks    int64 // writes with no surviving place to land
	DirtyBlocksLost    int64 // dirty cache blocks lost to NVRAM failure
	SectorErrors       int64
	SectorRetries      int64
	SectorReconstructs int64
	FailoverReads      int64 // mirror reads redirected to the surviving copy

	SickOnsets      int64 // sick-disk episodes that started
	SickClears      int64 // sick-disk episodes that ended
	Hangs           int64 // intermittent drive freezes injected
	TransientErrors int64 // media passes that failed transiently
}

func (c *common) degradedNow() bool { return c.fs.nfailed > 0 }

// writeDown reports whether writes to slot d have nowhere to go. A
// rebuilding slot accepts writes (the spare must stay current with
// foreground traffic) even though it is not yet readable.
func (c *common) writeDown(d int) bool { return c.fs.failed[d] && !c.fs.rebuilding[d] }

// FailDisk implements fault.Handler: slot d dies now. Queued accesses are
// dropped by the drive (their callbacks still fire); subsequent reads are
// served from redundancy via the scheme's readFallback and writes degrade
// per the scheme's mapping. With a spare available the slot is swapped
// immediately and a background rebuild sweep starts. Idempotent.
func (c *common) FailDisk(d int) {
	if d < 0 || d >= len(c.disks) || c.fs.failed[d] {
		return
	}
	now := c.eng.Now()
	c.fs.failures++
	c.fs.failed[d] = true
	c.fs.nfailed++
	c.fs.degraded.Open(now)
	c.cfg.Rec.Degraded(now, true)
	c.cfg.Rec.Note(obs.Event{At: now, Kind: obs.EvDiskFail, Disk: d})
	c.disks[d].Fail()
	c.sch.onFail(d)
	if c.fs.spares <= 0 {
		return
	}
	c.fs.spares--
	c.fs.sparesUsed++
	c.cfg.Rec.Note(obs.Event{At: now, Kind: obs.EvSpareSwap, Disk: d})
	c.disks[d].Repair()
	c.fs.srcs = c.sch.rebuildSources(c.fs.srcs[:0], d)
	if len(c.fs.srcs) == 0 {
		// Nothing to reconstruct from: the spare goes straight into
		// service empty (the lost contents were already accounted by
		// onFail).
		c.completeRepair(d)
		return
	}
	c.fs.rebuilding[d] = true
	c.startSweep(d)
}

// FailCache implements fault.Handler. Non-cached organizations ignore it.
func (c *common) FailCache() {
	if c.fs.onCacheFail == nil {
		return
	}
	c.fs.cacheFailures++
	c.fs.onCacheFail()
}

// SickDisk implements fault.SickHandler: slot d starts limping now —
// slower service and (via the injector's transient sampling) flaky media
// passes. A dead slot can still turn sick; the symptoms apply to the
// spare if one is swapped in.
func (c *common) SickDisk(s fault.SickDisk) {
	if s.Disk < 0 || s.Disk >= len(c.disks) {
		return
	}
	c.fs.sickOnsets++
	if s.SlowFactor > 1 {
		c.disks[s.Disk].SetSlowFactor(s.SlowFactor)
	}
	c.cfg.Rec.Note(obs.Event{At: c.eng.Now(), Kind: obs.EvSickOnset, Disk: s.Disk})
}

// SickClear implements fault.SickHandler: slot d recovers.
func (c *common) SickClear(d int) {
	if d < 0 || d >= len(c.disks) {
		return
	}
	c.fs.sickClears++
	c.disks[d].SetSlowFactor(1)
	c.cfg.Rec.Note(obs.Event{At: c.eng.Now(), Kind: obs.EvSickClear, Disk: d})
}

// HangDisk implements fault.SickHandler: slot d freezes until the given
// time (in-flight service finishes; nothing new is scheduled).
func (c *common) HangDisk(d int, until sim.Time) {
	if d < 0 || d >= len(c.disks) {
		return
	}
	c.fs.hangs++
	c.disks[d].Hang(until)
}

// completeRepair puts slot d back in service.
func (c *common) completeRepair(d int) {
	now := c.eng.Now()
	if s := c.fs.sweeps[d]; s != nil && s.root != nil {
		c.tr.FinishBackground(s.root, now)
		s.root = nil
	}
	c.cfg.Rec.RebuildProgress(d, 1)
	c.fs.rebuilding[d] = false
	c.fs.failed[d] = false
	c.fs.nfailed--
	c.fs.degraded.Close(now)
	if c.fs.nfailed == 0 {
		c.cfg.Rec.Degraded(now, false)
	}
	c.cfg.Rec.Note(obs.Event{At: now, Kind: obs.EvRebuildDone, Disk: d})
	if c.fs.inj != nil {
		c.fs.inj.DiskReplaced(d)
	}
}

// sweepRec is the rebuild sweep of one slot: where it is, the chunk in
// flight with its device requests, and the sweep's continuations, bound
// once. faultState keeps one per slot, made on the slot's first rebuild.
// A sweep has one chunk in flight at a time and ends only between
// chunks, so a later sweep of the same slot finds its record idle.
type sweepRec struct {
	c       *common
	d       int
	pos     int64 // first block of the chunk in flight
	n       int   // its length
	started sim.Time
	root    *obs.Span // the sweep-wide "rebuild" span, open until repair (nil untraced)
	chunk   *obs.Span
	left    int // source reads outstanding
	reads   []disk.Request
	write   disk.Request

	readDoneFn, writeDoneFn, nextFn func()
}

// startSweep starts the rebuild sweep of slot d from block 0.
func (c *common) startSweep(d int) {
	s := c.fs.sweeps[d]
	if s == nil {
		s = &sweepRec{c: c, d: d}
		s.readDoneFn, s.writeDoneFn, s.nextFn = s.readDone, s.writeDone, s.next
		c.fs.sweeps[d] = s
	}
	s.pos, s.started = 0, c.eng.Now()
	if c.tr != nil {
		s.root = c.tr.StartBackground("rebuild", s.started)
		s.root.SetDisk(d)
	}
	s.step()
}

// step reconstructs physical blocks [pos, pos+chunk) of the slot from
// its surviving sources at background priority and writes them onto the
// spare, then waits RebuildPause before the next chunk; the pause
// throttles the sweep's interference with foreground load.
func (s *sweepRec) step() {
	c, d := s.c, s.d
	bpd := c.cfg.Spec.BlocksPerDisk()
	if s.pos >= bpd {
		c.fs.rebuilds++
		c.fs.rebuildBusy += c.eng.Now() - s.started
		c.completeRepair(d)
		return
	}
	c.fs.srcs = c.sch.rebuildSources(c.fs.srcs[:0], d)
	srcs := c.fs.srcs
	if len(srcs) == 0 {
		// A source died mid-sweep; reconstruction can no longer finish
		// (that failure counted the data loss). Abandon the sweep and put
		// the spare in service as-is.
		c.fs.rebuildBusy += c.eng.Now() - s.started
		c.completeRepair(d)
		return
	}
	s.n = c.cfg.RebuildChunk
	if s.pos+int64(s.n) > bpd {
		s.n = int(bpd - s.pos)
	}
	// Each chunk is its own background span tree (read legs from the
	// sources, then the write onto the spare); the sweep-wide "rebuild"
	// root brackets the whole recovery.
	s.chunk = nil
	if c.tr != nil {
		s.chunk = c.tr.StartBackground("rebuild-chunk", c.eng.Now())
		s.chunk.SetDisk(d)
		s.chunk.SetBlocks(s.n)
	}
	// Size the requests before submitting any: a drive holds on to them.
	if cap(s.reads) < len(srcs) {
		s.reads = make([]disk.Request, len(srcs))
	}
	s.reads = s.reads[:len(srcs)]
	s.left = len(srcs)
	for i, src := range srcs {
		var rd *obs.Span
		if s.chunk != nil {
			rd = s.chunk.Child("rebuild-read", c.eng.Now())
			rd.SetBlocks(s.n)
		}
		s.reads[i] = disk.Request{
			StartBlock: s.pos, Blocks: s.n,
			Priority: disk.PriBackground, Span: rd, OnDone: s.readDoneFn,
		}
		c.disks[src].Submit(&s.reads[i])
	}
}

// readDone counts a source read in; the last one issues the write.
func (s *sweepRec) readDone() {
	if !countDown(&s.left) {
		return
	}
	c := s.c
	var wr *obs.Span
	if s.chunk != nil {
		wr = s.chunk.Child("rebuild-write", c.eng.Now())
		wr.SetBlocks(s.n)
	}
	s.write = disk.Request{
		StartBlock: s.pos, Blocks: s.n, Write: true,
		Priority: disk.PriBackground, Span: wr, OnDone: s.writeDoneFn,
	}
	c.disks[s.d].Submit(&s.write)
}

// writeDone ends the chunk and schedules the next one.
func (s *sweepRec) writeDone() {
	c := s.c
	bpd := c.cfg.Spec.BlocksPerDisk()
	c.cfg.Rec.RebuildIO(c.eng.Now(), s.n)
	c.cfg.Rec.RebuildProgress(s.d, float64(s.pos+int64(s.n))/float64(bpd))
	if s.chunk != nil {
		c.tr.FinishBackground(s.chunk, c.eng.Now())
		s.chunk = nil
	}
	if c.cfg.RebuildPause > 0 {
		c.eng.After(c.cfg.RebuildPause, s.nextFn)
	} else {
		s.next()
	}
}

func (s *sweepRec) next() {
	s.pos += int64(s.n)
	s.step()
}

// RebuildActive reports whether any slot is still being swept; the run
// loop keeps the clock advancing until rebuilds finish.
func (c *common) RebuildActive() bool {
	for _, r := range c.fs.rebuilding {
		if r {
			return true
		}
	}
	return false
}

// readRun issues one read run, transparently absorbing failed drives
// (redundancy fallback) and latent sector errors (bounded retry, then
// fallback). All controller read paths funnel through here. op is the
// device-op trace span the access runs under (nil when untraced);
// recovery legs nest beneath it.
func (c *common) readRun(rn run, pri disk.Priority, op *obs.Span, onDone func()) {
	if c.fs.nfailed > 0 && c.fs.failed[rn.disk] {
		c.fallbackRead(rn, pri, op, onDone)
		return
	}
	c.mediaRead(rn, pri, 0, 0, op, onDone)
}

// mediaRead issues one device read pass. tries counts latent-sector-
// error retries (injector-bounded), att counts transient-error retries
// (robustness-layer-bounded, with backoff) — independent budgets for
// independent failure modes.
func (c *common) mediaRead(rn run, pri disk.Priority, tries, att int, op *obs.Span, onDone func()) {
	m := c.recs.reads.take()
	if m == nil {
		m = new(readRec)
		m.doneFn = m.done
	}
	m.c, m.rn, m.pri, m.tries, m.att, m.op, m.onDone = c, rn, pri, tries, att, op, onDone
	m.req = disk.Request{
		StartBlock: rn.start, Blocks: int(rn.blocks), TransferSectors: int(rn.sectors),
		Priority: pri, Span: op, OnDone: m.doneFn,
	}
	c.disks[rn.disk].Submit(&m.req)
}

// done is the read's OnDone. The record is returned first, so a retry
// below may take it back and resubmit its request from inside this
// OnDone, which the drive allows.
func (m *readRec) done() {
	c, rn, pri, tries, att, op, onDone := m.c, m.rn, m.pri, m.tries, m.att, m.op, m.onDone
	m.rn, m.op, m.onDone, m.req.Span = run{}, nil, nil, nil
	c.recs.reads.put(m)

	// The drive may have died while this access was queued (it was
	// dropped) — the "data" cannot be trusted either way.
	if c.fs.nfailed > 0 && c.fs.failed[rn.disk] {
		c.fallbackRead(rn, pri, op, onDone)
		return
	}
	if c.fs.inj != nil && c.fs.inj.TransientFaulty(rn.disk, int(rn.blocks)) {
		c.fs.transientErrors++
		if att < c.rb.cfg.Retries {
			c.rb.retries++
			c.cfg.Rec.Retry(c.eng.Now(), rn.disk, att+1)
			issuedAt := c.eng.Now()
			c.eng.After(c.retryDelay(att), func() {
				if now := c.eng.Now(); now > issuedAt {
					op.ChildSpan("retry-backoff", issuedAt, now)
				}
				c.mediaRead(rn, pri, tries, att+1, op, onDone)
			})
			return
		}
		// Budget spent (or no retries configured): recover the run
		// from redundancy instead of hammering the sick drive.
		if c.rb.cfg.Retries > 0 {
			c.rb.retriesExhausted++
			c.rb.attemptsExhausted += int64(c.rb.cfg.Retries)
		}
		c.fallbackRead(rn, pri, op, onDone)
		return
	}
	if c.fs.inj == nil || !c.fs.inj.SectorFaulty(int(rn.blocks)) {
		onDone()
		return
	}
	c.fs.sectorErrors++
	if tries < fault.MaxReadRetries {
		c.fs.sectorRetries++
		c.mediaRead(rn, pri, tries+1, att, op, onDone)
		return
	}
	c.fs.sectorReconstructs++
	c.fallbackRead(rn, pri, op, onDone)
}

// fallbackRead recovers a read run from redundancy, or counts it lost.
func (c *common) fallbackRead(rn run, pri disk.Priority, op *obs.Span, onDone func()) {
	done := onDone
	if op != nil {
		done = func() { op.CloseAt(c.eng.Now()); onDone() }
	}
	if c.sch.readFallback(rn, pri, op, done) {
		return
	}
	c.fs.lostReadBlocks += int64(rn.blocks)
	c.cfg.Rec.DataLoss(c.eng.Now(), rn.disk, int(rn.blocks))
	c.eng.After(0, done)
}

// filterWriteRuns drops runs whose target slot is gone (dead with no
// rebuilding spare), returning the survivors and the dropped block count.
// Used by the non-parity schemes; whether a dropped run means data loss
// depends on redundancy, so the caller does that accounting.
func (c *common) filterWriteRuns(runs []run) ([]run, int) {
	if c.fs.nfailed == 0 {
		return runs, 0
	}
	out := runs[:0]
	dropped := 0
	for _, rn := range runs {
		if c.writeDown(rn.disk) {
			dropped += int(rn.blocks)
			continue
		}
		out = append(out, rn)
	}
	return out, dropped
}

// faultResults snapshots the accounting.
func (c *common) faultResults() FaultResults {
	now := c.eng.Now()
	return FaultResults{
		Enabled:            c.fs.inj != nil || c.cfg.Spares > 0,
		Failures:           c.fs.failures,
		CacheFailures:      c.fs.cacheFailures,
		SparesUsed:         c.fs.sparesUsed,
		Rebuilds:           c.fs.rebuilds,
		RebuildTime:        c.fs.rebuildBusy,
		RebuildActive:      c.RebuildActive(),
		DegradedTime:       c.fs.degraded.Total(now),
		DegradedWindows:    c.fs.degraded.Count(),
		DegradedActive:     c.fs.degraded.Active(),
		DataLossEvents:     c.fs.dataLossEvents,
		LostReadBlocks:     c.fs.lostReadBlocks,
		LostWriteBlocks:    c.fs.lostWriteBlocks,
		DirtyBlocksLost:    c.fs.dirtyLost,
		SectorErrors:       c.fs.sectorErrors,
		SectorRetries:      c.fs.sectorRetries,
		SectorReconstructs: c.fs.sectorReconstructs,
		FailoverReads:      c.fs.failoverReads,
		SickOnsets:         c.fs.sickOnsets,
		SickClears:         c.fs.sickClears,
		Hangs:              c.fs.hangs,
		TransientErrors:    c.fs.transientErrors,
	}
}
