// Package array implements the disk array controllers the paper compares:
// Base (independent disks), Mirror, RAID5, Parity Striping and RAID4, each
// in non-cached and cached variants, plus the RAID1/0 (striped mirror
// pairs) extension. A controller owns an array's disks, its channel and
// track buffers, and (when configured) its non-volatile cache with the
// periodic destage process; it turns logical I/O requests into physical
// disk accesses, including the read-modify-write parity updates and their
// data/parity synchronization policies.
//
// The controllers are a layered pipeline: a redundancy scheme (the
// organization's mapping of logical runs to device operations, normal and
// degraded — see scheme.go) sits between the shared request envelope /
// optional NV-cache front-end above and the device/bus back-end below.
package array

import (
	"fmt"
	"strings"

	"raidsim/internal/bus"
	"raidsim/internal/cache"
	"raidsim/internal/disk"
	"raidsim/internal/fault"
	"raidsim/internal/geom"
	"raidsim/internal/layout"
	"raidsim/internal/obs"
	"raidsim/internal/rng"
	"raidsim/internal/sim"
	"raidsim/internal/stats"
	"raidsim/internal/trace"
)

// SyncPolicy selects how a parity update is synchronized with its data
// update (section 3.3 of the paper).
type SyncPolicy int

// The five policies of Figure 4.
const (
	// SI issues the parity access at the same time as the data access;
	// the parity disk holds full rotations until the old data is read.
	SI SyncPolicy = iota
	// RF waits for the old data to be read before issuing the parity
	// access.
	RF
	// RFPR is RF with the parity access given queue priority.
	RFPR
	// DF issues the parity access when the data access acquires its disk.
	DF
	// DFPR is DF with the parity access given queue priority.
	DFPR
)

func (p SyncPolicy) String() string {
	switch p {
	case SI:
		return "SI"
	case RF:
		return "RF"
	case RFPR:
		return "RF/PR"
	case DF:
		return "DF"
	case DFPR:
		return "DF/PR"
	}
	return fmt.Sprintf("sync(%d)", int(p))
}

// SyncPolicyNames lists the canonical policy names ParseSyncPolicy
// accepts.
func SyncPolicyNames() []string { return []string{"SI", "RF", "RF/PR", "DF", "DF/PR"} }

// ParseSyncPolicy converts a name to a SyncPolicy. Matching is
// case-insensitive and tolerates the slashed, dashed, and plain spellings
// of the priority variants (rf/pr, rf-pr, rfpr).
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "si":
		return SI, nil
	case "rf":
		return RF, nil
	case "rfpr", "rf/pr", "rf-pr":
		return RFPR, nil
	case "df":
		return DF, nil
	case "dfpr", "df/pr", "df-pr":
		return DFPR, nil
	}
	return 0, fmt.Errorf("array: unknown sync policy %q (valid: %s)", s, strings.Join(SyncPolicyNames(), ", "))
}

func (p SyncPolicy) priority() bool  { return p == RFPR || p == DFPR }
func (p SyncPolicy) diskFirst() bool { return p == DF || p == DFPR }

// Config describes one array.
type Config struct {
	Org  Org
	N    int // data-disk equivalents; see Org for the physical disk count
	Spec geom.Spec
	Seek geom.SeekModel

	StripingUnit     int              // RAID5/RAID4/RAID10, in blocks (default 1)
	Placement        layout.Placement // parity striping placement
	ParityStripeUnit int64            // fine-grained parity striping; 0 = classic
	Sync             SyncPolicy       // parity/data synchronization policy

	Cached           bool
	CacheBlocks      int      // capacity of the NV cache in blocks
	DestagePeriod    sim.Time // periodic destage interval (default 1s)
	PureLRUWriteback bool     // ablation: write back only on eviction

	// Warmup excludes requests arriving before this time from the
	// response statistics (they are still simulated — the point is to
	// measure steady state, e.g. after the cache fills).
	Warmup sim.Time

	BuffersPerDisk int // track buffers per disk (default 5)
	// DiskSched selects the drives' queue discipline within a priority
	// class. The paper's model is FIFO (the default); SSTF and LOOK are
	// extensions.
	DiskSched disk.Sched
	// SyncSpindles, when set, gives every drive the same rotational
	// phase (the paper assumes *no* spindle synchronization; the flag
	// exists for the ablation).
	SyncSpindles bool
	Seed         uint64

	// Fault configures fault injection (package fault); the zero value
	// injects nothing. RAID3 and parity logging have no degraded-mode
	// model and reject fault configs.
	Fault fault.Config
	// Spares is the hot-spare pool: each disk failure consumes one spare
	// and starts an automatic background rebuild onto it.
	Spares int
	// RebuildChunk is blocks per rebuild I/O (default 48); RebuildPause
	// is an idle gap between chunks to throttle rebuild interference.
	RebuildChunk int
	RebuildPause sim.Time

	// Robust configures the request-robustness layer: deadlines, retry
	// of transient errors, hedged reads, and overload shedding. The zero
	// value disables everything.
	Robust RobustConfig

	// Classes, when non-empty, is the workload's client-class table:
	// Request.CClass indexes it and Results.Classes reports each class
	// separately. Empty means classless — no per-class accounting, the
	// exact pre-multi-client behavior.
	Classes []trace.ClassInfo

	// Rec, when non-nil, receives windowed time-series observations
	// (latency histograms, utilization, queue depth, destage and rebuild
	// traffic). A nil Rec leaves the simulation bit-identical.
	Rec *obs.Recorder
}

func (c *Config) fillDefaults() error {
	if c.N < 2 {
		return fmt.Errorf("array: N must be >= 2, got %d", c.N)
	}
	if err := c.Spec.Validate(); err != nil {
		return err
	}
	if c.Seek == (geom.SeekModel{}) {
		m, err := geom.CalibrateSeek(c.Spec)
		if err != nil {
			return err
		}
		c.Seek = m
	}
	if c.StripingUnit <= 0 {
		c.StripingUnit = 1
	}
	if c.BuffersPerDisk <= 0 {
		c.BuffersPerDisk = 5
	}
	if c.DestagePeriod <= 0 {
		c.DestagePeriod = sim.Second
	}
	if c.Cached && c.CacheBlocks <= 0 {
		c.CacheBlocks = 16 << 20 / c.Spec.BlockBytes // 16 MB default
	}
	if c.Spares < 0 {
		return fmt.Errorf("array: negative spare count %d", c.Spares)
	}
	if c.RebuildChunk <= 0 {
		c.RebuildChunk = 48
	}
	if err := c.Fault.Validate(); err != nil {
		return err
	}
	if err := c.Robust.Validate(); err != nil {
		return err
	}
	return c.checkOrg()
}

// Request is one logical I/O against the array's data space.
type Request struct {
	Op     trace.Op
	LBA    int64
	Blocks int
	// Class is the request's SLO class (gold by default): it selects the
	// deadline the response is measured against and whether admission
	// control may shed the request under overload.
	Class SLOClass
	// CClass indexes Config.Classes, the client class that issued the
	// request; ignored (and 0) on classless arrays.
	CClass uint8
	// OnComplete, when non-nil, fires when the request's response
	// completes. Closed-loop drivers hook it to keep a fixed number of
	// requests outstanding. It also fires (asynchronously) when the
	// request is shed at admission.
	OnComplete func()
}

// StageBreakdown attributes the array's simulated disk-side milliseconds
// to pipeline stages, so a figure can explain where the time goes. The
// sums cover every disk access the array issued (foreground, destage,
// parity, rebuild); they are busy-time attribution, not per-request
// response decomposition.
type StageBreakdown struct {
	QueueMS        float64 // waiting in disk queues for the mechanism
	SeekRotateMS   float64 // arm seeks + rotational positioning (incl. RMW realignment)
	TransferMS     float64 // media passes over the data
	ParitySyncMS   float64 // full rotations held waiting for parity inputs (sync policy cost)
	DestageStallMS float64 // foreground requests blocked making cache room
}

// Add accumulates o into b.
func (b *StageBreakdown) Add(o *StageBreakdown) {
	b.QueueMS += o.QueueMS
	b.SeekRotateMS += o.SeekRotateMS
	b.TransferMS += o.TransferMS
	b.ParitySyncMS += o.ParitySyncMS
	b.DestageStallMS += o.DestageStallMS
}

// Total returns the attributed milliseconds across all stages.
func (b *StageBreakdown) Total() float64 {
	return b.QueueMS + b.SeekRotateMS + b.TransferMS + b.ParitySyncMS + b.DestageStallMS
}

// Results aggregates what an array simulation measured.
type Results struct {
	Org       Org
	Requests  int64
	Resp      stats.Summary // ms, all requests
	ReadResp  stats.Summary
	WriteResp stats.Summary

	// NormalResp/DegradedResp split Resp by whether the array was
	// degraded (a slot unreadable) when the request completed.
	NormalResp   stats.Summary
	DegradedResp stats.Summary
	Fault        FaultResults
	Robust       RobustResults

	// Classes reports each workload client class separately; nil on
	// classless runs.
	Classes []ClassResults

	// Per-request cache accounting (multiblock counts as a hit only if
	// every block hit, as in the paper).
	ReadHits, ReadMisses   int64
	WriteHits, WriteMisses int64

	DiskAccesses   []int64
	DiskUtil       []float64
	SeekDistMean   float64
	HeldRotations  int64
	Cache          cache.Stats
	ParityAccesses int64 // disk accesses that targeted parity blocks

	// Stages attributes disk-side time to pipeline stages.
	Stages StageBreakdown
}

// Controller is a simulated array controller.
type Controller interface {
	// Submit presents a request at the current simulation time. The LBA
	// span must lie within [0, DataBlocks()).
	Submit(r Request)
	// DataBlocks returns the array's logical capacity in blocks.
	DataBlocks() int64
	// Drained reports whether no request is still in flight.
	Drained() bool
	// Results snapshots statistics; call after the engine has drained.
	Results() *Results
	// Release hands the controller's reusable buffers back for a later
	// controller to recycle. Call it after Results, when the engine will
	// run none of the controller's events again (before a Reset); the
	// controller must not be used afterwards.
	Release()
}

// New builds the controller the config describes: the organization's
// layout and redundancy scheme over the shared hardware, behind either
// the generic non-cached controller or the NV-cache front-end.
func New(eng *sim.Engine, cfg Config) (Controller, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	bpd := cfg.Spec.BlocksPerDisk()

	// Layout → shared hardware → scheme. The schemes hold c before init
	// sizes it to the layout's drives.
	c := new(common)
	var (
		lay layout.DataLayout
		s   scheme
	)
	switch cfg.Org {
	case OrgBase:
		lay = layout.NewBase(cfg.N, bpd)
		s = &plainScheme{noRedundancy{c}, lay}
	case OrgRAID0:
		lay = layout.NewRAID0(cfg.N, bpd, cfg.StripingUnit)
		s = &plainScheme{noRedundancy{c}, lay}
	case OrgMirror:
		ml := layout.NewMirror(cfg.N, bpd)
		lay, s = ml, &mirrorScheme{c: c, lay: ml}
	case OrgRAID10:
		ml := layout.NewRAID10(cfg.N, bpd, cfg.StripingUnit)
		lay, s = ml, &mirrorScheme{c: c, lay: ml}
	case OrgRAID5:
		pl := layout.NewRAID5(cfg.N, bpd, cfg.StripingUnit)
		lay, s = pl, &parityScheme{c: c, lay: pl}
	case OrgParityStriping:
		pl := layout.NewParityStriping(cfg.N, bpd, cfg.Placement, cfg.ParityStripeUnit)
		lay, s = pl, &parityScheme{c: c, lay: pl}
	case OrgRAID4:
		pl := layout.NewRAID4(cfg.N, bpd, cfg.StripingUnit)
		lay, s = pl, newRAID4Scheme(c, pl)
	case OrgRAID3:
		// A one-block unit puts block l's slices at row l/N, parity on disk N.
		r4 := layout.NewRAID4(cfg.N, bpd, 1)
		lay, s = r4, &raid3Scheme{noRedundancy{c}, r4}
	case OrgParityLog:
		pl := newPlogScheme(c, cfg)
		lay, s = pl.lay, pl
	}
	if err := c.init(eng, cfg, lay); err != nil {
		return nil, err
	}
	c.sch = s

	var ctrl Controller
	if cfg.Cached {
		cc, err := newCached(c, s)
		if err != nil {
			return nil, err
		}
		if r4, ok := s.(*raid4Scheme); ok {
			r4.cc = cc // the parity spool lives in the front-end's cache
		}
		ctrl = cc
	} else {
		ctrl = &schemeCtrl{common: c, s: s}
	}
	if cfg.Fault.Enabled() {
		inj, err := fault.NewInjector(eng, cfg.Fault, len(c.disks))
		if err != nil {
			return nil, err
		}
		c.fs.inj = inj
		inj.Arm(c)
	}
	return ctrl, nil
}

// common holds the hardware every controller variant shares.
type common struct {
	eng    *sim.Engine
	cfg    Config
	blocks int64 // the layout's logical capacity
	disks  []*disk.Disk
	ch     *bus.Channel
	buf    *bus.BufferPool
	sch    scheme      // the organization's mapping; the fault path dispatches to it
	tr     *obs.Tracer // nil when span tracing is off

	requests               int64
	inflight               int64
	resp                   stats.Summary
	readResp               stats.Summary
	writeResp              stats.Summary
	normResp               stats.Summary
	degResp                stats.Summary
	readHits, readMisses   int64
	writeHits, writeMisses int64
	parityAccesses         int64

	// stages holds the controller-side stage attribution (destage
	// stalls); the disk-side stages are gathered from disk.Stats at
	// results time.
	stages StageBreakdown

	// dirtyFrac reports the cache dirty fraction for the observability
	// sampler; nil for non-cached controllers.
	dirtyFrac func() float64

	// cls holds per-client-class accumulators, one per Config.Classes
	// entry; empty on classless arrays.
	cls []classAcct

	fs   faultState
	rb   robustState
	recs recPools
}

// init wires c to the engine and builds the layout's drives, channel
// and track buffers.
func (c *common) init(eng *sim.Engine, cfg Config, lay layout.DataLayout) error {
	ndisks := lay.Disks()
	src := rng.New(cfg.Seed ^ 0x9e3779b97f4a7c15)
	ch, err := bus.NewChannel(eng, cfg.Spec.ChannelMBps)
	if err != nil {
		return err
	}
	buf, err := bus.NewBufferPool(eng, cfg.BuffersPerDisk*ndisks)
	if err != nil {
		return err
	}
	c.eng, c.cfg, c.ch, c.buf, c.blocks = eng, cfg, ch, buf, lay.DataBlocks()
	c.disks = make([]*disk.Disk, ndisks)
	sharedPhase := src.Float64()
	lockstep := cfg.SyncSpindles || cfg.Org.row().lockstep
	for i := range c.disks {
		phase := sharedPhase
		if !lockstep {
			phase = src.Float64()
		}
		c.disks[i], err = disk.New(eng, i, cfg.Spec, cfg.Seek, phase)
		if err != nil {
			return err
		}
		if err := c.disks[i].SetSched(cfg.DiskSched); err != nil {
			return err
		}
	}
	c.fs.failed = make([]bool, ndisks)
	c.fs.rebuilding = make([]bool, ndisks)
	c.fs.sweeps = make([]*sweepRec, ndisks)
	c.fs.spares = cfg.Spares
	if len(cfg.Classes) > 0 {
		c.cls = make([]classAcct, len(cfg.Classes))
	}
	c.tr = cfg.Rec.Tracer()
	c.initRobust()
	c.armObs()
	return nil
}

// armObs attaches the recorder's probes: per-disk busy intervals and a
// uniform-in-time sampler for queue depth, cache dirty fraction, and the
// engine's executed-event count. The sampler period is a quarter window,
// so every window averages four snapshots. No-op without a recorder —
// with observability off the engine sees no extra events at all.
func (c *common) armObs() {
	rec := c.cfg.Rec
	if rec == nil {
		return
	}
	for _, d := range c.disks {
		d.SetProbe(rec)
	}
	period := rec.Window() / 4
	if period <= 0 {
		period = 1
	}
	sim.NewTicker(c.eng, period, func() {
		depth := 0
		for _, d := range c.disks {
			depth += d.QueueLen()
		}
		var dirty float64
		if c.dirtyFrac != nil {
			dirty = c.dirtyFrac()
		}
		rec.Sample(c.eng.Now(), depth, dirty, c.eng.Steps())
	})
}

// begin opens a request: counters, and — when tracing — the root span of
// its trace tree, which every layer below threads through to its device
// operations.
func (c *common) begin(write bool) (sim.Time, *obs.Span) {
	c.requests++
	c.inflight++
	now := c.eng.Now()
	return now, c.tr.Start(now, write)
}

func (c *common) finish(r Request, start sim.Time, sp *obs.Span) {
	ms := sim.Millis(c.eng.Now() - start)
	if rec := c.cfg.Rec; rec != nil {
		// The recorder sees every completion (warmup included): the time
		// series exists to show transients, not steady state.
		rec.Request(c.eng.Now(), r.Op != trace.Read, ms)
		if len(c.cls) > 0 {
			rec.ClassRequest(c.eng.Now(), int(r.CClass), ms)
		}
	}
	if start >= c.cfg.Warmup {
		c.resp.Add(ms)
		if r.Op == trace.Read {
			c.readResp.Add(ms)
		} else {
			c.writeResp.Add(ms)
		}
		if c.fs.degraded.Active() {
			c.degResp.Add(ms)
		} else {
			c.normResp.Add(ms)
		}
		if len(c.cls) > 0 {
			var missed, checked bool
			if c.rb.on {
				cl := r.Class
				if cl < 0 || cl >= NumSLOClasses {
					cl = SLOGold
				}
				if dl := c.rb.cfg.deadlineFor(cl); dl > 0 {
					checked = true
					missed = c.eng.Now()-start > dl
				}
			}
			c.finishClass(r, ms, missed, checked)
		}
	}
	if c.rb.on {
		c.finishRobust(r, start)
	}
	c.tr.Finish(sp, c.eng.Now(), c.fs.degraded.Active())
	c.inflight--
	if r.OnComplete != nil {
		r.OnComplete()
	}
}

// Drained implements Controller. A losing hedge leg outlives its
// request; it still occupies a drive, so it holds the drain too.
func (c *common) Drained() bool { return c.inflight == 0 && c.rb.hedgeLegs == 0 }

// chanXfer moves n blocks over the array channel.
func (c *common) chanXfer(n int, onDone func()) {
	c.ch.Transfer(int64(n)*int64(c.cfg.Spec.BlockBytes), onDone)
}

// chanXferUnder is chanXfer under a "channel" child span of sp, which
// it returns (nil when sp is). The caller keeps the span in its record
// and closes it in onDone, before anything else onDone does.
func (c *common) chanXferUnder(sp *obs.Span, n int, onDone func()) *obs.Span {
	var ch *obs.Span
	if sp != nil {
		ch = sp.Child(obs.SpanChannel, c.eng.Now())
	}
	c.chanXfer(n, onDone)
	return ch
}

// closeChan closes the channel span *ch opened by chanXferUnder, now,
// and clears it.
func (c *common) closeChan(ch **obs.Span) {
	if *ch != nil {
		(*ch).CloseAt(c.eng.Now())
		*ch = nil
	}
}

func (c *common) baseResults() *Results {
	r := &Results{
		Org:       c.cfg.Org,
		Requests:  c.requests,
		Resp:      c.resp,
		ReadResp:  c.readResp,
		WriteResp: c.writeResp,
		ReadHits:  c.readHits, ReadMisses: c.readMisses,
		WriteHits: c.writeHits, WriteMisses: c.writeMisses,
		ParityAccesses: c.parityAccesses,
		NormalResp:     c.normResp,
		DegradedResp:   c.degResp,
		Fault:          c.faultResults(),
		Robust:         c.robustResults(),
		Classes:        c.classResults(),
		Stages:         c.stages,
	}
	now := c.eng.Now()
	rot := c.cfg.Spec.RotationTime()
	var distSum, seeks int64
	for _, d := range c.disks {
		r.DiskAccesses = append(r.DiskAccesses, d.S.Accesses)
		r.DiskUtil = append(r.DiskUtil, d.S.Util.Value(now))
		r.HeldRotations += d.S.HeldRotations
		distSum += d.S.SeekDistSum
		seeks += d.S.SeekCount
		r.Stages.QueueMS += sim.Millis(d.S.QueueTime)
		r.Stages.SeekRotateMS += sim.Millis(d.S.SeekTime + d.S.RotateTime)
		r.Stages.TransferMS += sim.Millis(d.S.TransferTime)
		r.Stages.ParitySyncMS += sim.Millis(d.S.HeldRotations * rot)
	}
	if seeks > 0 {
		r.SeekDistMean = float64(distSum) / float64(seeks)
	}
	return r
}

// latch runs fn once n completions have been signalled. A latch created
// with n == 0 fires immediately.
type latch struct {
	n  int
	fn func()
}

func newLatch(n int, fn func()) *latch {
	l := &latch{n: n, fn: fn}
	if n == 0 {
		fn()
	}
	return l
}

func (l *latch) done() {
	if countDown(&l.n) {
		l.fn()
	}
}

// DataBlocks implements Controller.
func (c *common) DataBlocks() int64 { return c.blocks }

func (c *common) checkRequest(r Request) {
	if r.Blocks <= 0 {
		panic("array: request with no blocks")
	}
	if r.LBA < 0 || r.LBA+int64(r.Blocks) > c.blocks {
		panic(fmt.Sprintf("array: request [%d,%d) outside [0,%d)", r.LBA, r.LBA+int64(r.Blocks), c.blocks))
	}
}
