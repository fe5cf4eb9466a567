package array

import (
	"fmt"

	"raidsim/internal/disk"
	"raidsim/internal/obs"
	"raidsim/internal/rng"
	"raidsim/internal/sim"
	"raidsim/internal/stats"
	"raidsim/internal/trace"
)

// SLOClass labels a request's service-level objective: interactive
// transaction traffic (gold) versus bulk/batch traffic that tolerates
// delay and may be shed under overload.
type SLOClass int

// The two classes the robustness layer distinguishes.
const (
	// SLOGold is latency-sensitive transaction traffic: never shed,
	// measured against the primary deadline.
	SLOGold SLOClass = iota
	// SLOBatch is bulk traffic: sheddable under overload, measured
	// against the (laxer) batch deadline.
	SLOBatch

	// NumSLOClasses sizes per-class accounting arrays.
	NumSLOClasses = 2
)

func (s SLOClass) String() string {
	switch s {
	case SLOGold:
		return "gold"
	case SLOBatch:
		return "batch"
	}
	return fmt.Sprintf("class(%d)", int(s))
}

// ClassifyBlocks assigns the default SLO class of a request from its
// size: single-block requests are transaction traffic (gold), multiblock
// requests are batch. The paper's OLTP traces are dominated by
// single-block accesses, so this split puts the bulk tail in the
// sheddable class.
func ClassifyBlocks(blocks int) SLOClass {
	if blocks > 1 {
		return SLOBatch
	}
	return SLOGold
}

// RobustConfig enables the request-robustness layer: per-class response
// deadlines, bounded retry of transient read errors, hedged reads on
// mirror-backed organizations, and overload shedding at admission. The
// zero value disables everything and leaves simulations bit-identical.
type RobustConfig struct {
	// Deadline is the gold-class response deadline; requests completing
	// later count as deadline misses. Zero disables deadline accounting.
	Deadline sim.Time
	// BatchDeadline is the batch-class deadline; zero falls back to
	// Deadline.
	BatchDeadline sim.Time

	// Retries bounds how many times a transient read error (a sick
	// disk's flaky media pass) is retried on the same drive before the
	// read falls back to redundancy. Retry k (0-based) waits up to
	// 1 ms << k, with full jitter.
	Retries int

	// HedgeAfter, when positive, arms hedged reads on mirror-backed
	// schemes: a read still unanswered after this delay dispatches a
	// speculative second leg to the partner copy; the first completion
	// wins.
	HedgeAfter sim.Time
	// HedgeQuantile, when in (0,1), derives the hedge delay from the
	// observed read-response distribution (e.g. 0.95 hedges the slowest
	// 5%) once enough samples exist; until then HedgeAfter applies.
	HedgeQuantile float64

	// ShedQueue, when positive, sheds batch-class requests at admission
	// while the total queued accesses across the array's drives is at or
	// above this depth.
	ShedQueue int
}

// Enabled reports whether any robustness feature is on.
func (c RobustConfig) Enabled() bool {
	return c.Deadline > 0 || c.BatchDeadline > 0 || c.Retries > 0 ||
		c.HedgeAfter > 0 || c.HedgeQuantile > 0 || c.ShedQueue > 0
}

// Validate reports configuration errors.
func (c RobustConfig) Validate() error {
	if c.Deadline < 0 || c.BatchDeadline < 0 {
		return fmt.Errorf("array: negative deadline")
	}
	if c.Retries < 0 {
		return fmt.Errorf("array: negative retry bound %d", c.Retries)
	}
	if c.HedgeAfter < 0 {
		return fmt.Errorf("array: negative hedge delay")
	}
	if c.HedgeQuantile < 0 || c.HedgeQuantile >= 1 {
		return fmt.Errorf("array: hedge quantile %g outside [0,1)", c.HedgeQuantile)
	}
	if c.ShedQueue < 0 {
		return fmt.Errorf("array: negative shed queue depth")
	}
	return nil
}

// deadlineFor returns the class's deadline (0 = none).
func (c RobustConfig) deadlineFor(class SLOClass) sim.Time {
	if class == SLOBatch && c.BatchDeadline > 0 {
		return c.BatchDeadline
	}
	return c.Deadline
}

// hedging reports whether hedged reads are configured at all.
func (c RobustConfig) hedging() bool { return c.HedgeAfter > 0 || c.HedgeQuantile > 0 }

// robustState is the per-array robustness machinery and accounting. It
// lives by value in common; rb.on gates every hot-path hook with one
// predictable branch, so disabled configs stay bit-identical.
type robustState struct {
	cfg RobustConfig
	on  bool
	src *rng.Source // retry jitter; allocated only when enabled

	// readHist observes read responses (ms) and keeps the HedgeQuantile
	// of them current, the quantile-based hedge delay.
	readHist obs.TrackedQuantile

	deadlineMet  [NumSLOClasses]int64
	deadlineMiss [NumSLOClasses]int64
	classResp    [NumSLOClasses]stats.Summary
	shed         [NumSLOClasses]int64

	retries           int64
	retriesExhausted  int64 // runs whose retry budget ran out (fell back to redundancy)
	attemptsExhausted int64 // retry attempts spent by those exhausted runs

	hedges      int64
	hedgeWins   int64
	hedgeLosses int64
	hedgeLegs   int64 // speculative legs still in flight (holds Drained false)
}

// RobustResults snapshots the robustness accounting for reports.
type RobustResults struct {
	Enabled bool

	// DeadlineMet/DeadlineMiss count measured requests per class against
	// their deadline (absent when no deadline is configured).
	DeadlineMet  [NumSLOClasses]int64
	DeadlineMiss [NumSLOClasses]int64
	// ClassResp splits measured response times by SLO class.
	ClassResp [NumSLOClasses]stats.Summary
	// Shed counts requests rejected at admission, per class.
	Shed [NumSLOClasses]int64

	Retries           int64 // transient-error retries issued
	RetriesExhausted  int64 // reads whose retry budget ran out
	AttemptsExhausted int64 // retry attempts spent by exhausted reads

	Hedges      int64 // speculative second legs dispatched
	HedgeWins   int64 // hedge legs that beat the primary
	HedgeLosses int64 // hedge legs the primary beat
}

// DeadlineMissFrac returns the fraction of measured class requests that
// missed their deadline.
func (r *RobustResults) DeadlineMissFrac(class SLOClass) float64 {
	n := r.DeadlineMet[class] + r.DeadlineMiss[class]
	if n == 0 {
		return 0
	}
	return float64(r.DeadlineMiss[class]) / float64(n)
}

// Merge folds o into r.
func (r *RobustResults) Merge(o *RobustResults) {
	r.Enabled = r.Enabled || o.Enabled
	for i := 0; i < NumSLOClasses; i++ {
		r.DeadlineMet[i] += o.DeadlineMet[i]
		r.DeadlineMiss[i] += o.DeadlineMiss[i]
		r.ClassResp[i].Merge(&o.ClassResp[i])
		r.Shed[i] += o.Shed[i]
	}
	r.Retries += o.Retries
	r.RetriesExhausted += o.RetriesExhausted
	r.AttemptsExhausted += o.AttemptsExhausted
	r.Hedges += o.Hedges
	r.HedgeWins += o.HedgeWins
	r.HedgeLosses += o.HedgeLosses
}

// initRobust arms the robustness layer from the array config. The rng
// source is allocated only when a feature is on, so disabled configs
// consume no randomness.
func (c *common) initRobust() {
	c.rb.cfg = c.cfg.Robust
	c.rb.on = c.cfg.Robust.Enabled()
	if c.rb.on {
		c.rb.src = rng.New(c.cfg.Seed ^ 0x5105510551055105)
		c.rb.readHist = obs.NewTrackedQuantile(c.cfg.Robust.HedgeQuantile)
	}
}

// robustResults snapshots the accounting.
func (c *common) robustResults() RobustResults {
	return RobustResults{
		Enabled:           c.rb.on,
		DeadlineMet:       c.rb.deadlineMet,
		DeadlineMiss:      c.rb.deadlineMiss,
		ClassResp:         c.rb.classResp,
		Shed:              c.rb.shed,
		Retries:           c.rb.retries,
		RetriesExhausted:  c.rb.retriesExhausted,
		AttemptsExhausted: c.rb.attemptsExhausted,
		Hedges:            c.rb.hedges,
		HedgeWins:         c.rb.hedgeWins,
		HedgeLosses:       c.rb.hedgeLosses,
	}
}

// finishRobust is the completion-side hook: class response accounting,
// deadline verdict, and the read-response histogram the hedge delay is
// derived from. Called from finish for every completed request when the
// layer is on.
func (c *common) finishRobust(r Request, start sim.Time) {
	now := c.eng.Now()
	ms := sim.Millis(now - start)
	if r.Op == trace.Read && c.rb.cfg.HedgeQuantile > 0 {
		c.rb.readHist.Add(ms)
	}
	if start < c.cfg.Warmup {
		return
	}
	class := r.Class
	if class < 0 || class >= NumSLOClasses {
		class = SLOGold
	}
	c.rb.classResp[class].Add(ms)
	dl := c.rb.cfg.deadlineFor(class)
	if dl <= 0 {
		return
	}
	if now-start > dl {
		c.rb.deadlineMiss[class]++
		c.cfg.Rec.Timeout(now, int(class), ms)
	} else {
		c.rb.deadlineMet[class]++
	}
}

// maybeShed is the admission-side hook: under overload (deep disk
// queues), batch-class requests are rejected before any resource is
// committed. The rejected request's OnComplete still fires
// (asynchronously, as callers expect) so closed-loop drivers keep
// running; it is counted as shed, not completed.
func (c *common) maybeShed(r Request) bool {
	if !c.rb.on || r.Class != SLOBatch {
		return false
	}
	shedQueue := c.rb.cfg.ShedQueue
	if shedQueue <= 0 {
		return false
	}
	depth := 0
	for _, d := range c.disks {
		depth += d.QueueLen()
	}
	if depth < shedQueue {
		return false
	}
	c.rb.shed[SLOBatch]++
	if int(r.CClass) < len(c.cls) {
		c.cls[r.CClass].shed++
	}
	c.cfg.Rec.Shed(c.eng.Now(), int(SLOBatch), r.Op != trace.Read)
	if r.OnComplete != nil {
		c.eng.After(0, r.OnComplete)
	}
	return true
}

// retryBackoff is the base delay before the first retry of a transient
// read error.
const retryBackoff = sim.Millisecond

// retryDelay returns the backoff before retry attempt att (0-based):
// full jitter over an exponentially growing window.
func (c *common) retryDelay(att int) sim.Time {
	w := retryBackoff << uint(att)
	if w <= 0 {
		return 0
	}
	return sim.Time(c.rb.src.Float64() * float64(w))
}

// hedger is the optional scheme capability behind hedged reads: schemes
// with an independent replica of every run (the mirror family) return
// the partner run to race against the primary.
type hedger interface {
	hedgeAlt(rn run) (run, bool)
}

// hedgeDelay returns how long a read may stay unanswered before its
// hedge leg is dispatched: the configured response quantile once enough
// samples exist, else the fixed HedgeAfter (0 = hedging not yet armed).
func (c *common) hedgeDelay() sim.Time {
	cfg := &c.rb.cfg
	if cfg.HedgeQuantile > 0 && c.rb.readHist.N() >= 32 {
		return sim.Time(c.rb.readHist.Value() * float64(sim.Millisecond))
	}
	return cfg.HedgeAfter
}

// hedgeOp tracks one hedged read: the primary leg, the (possibly
// cancelled) hedge timer, and the speculative leg. First completion
// wins; the loser's disk access still finishes but its callback is
// swallowed here. hedgeOps are pooled records (see records.go) whose
// lifetime is their legs', not their request's: the record goes back to
// its pool when the last leg it issued settles, which for a hedged read
// is after the winner has already run the request's continuation. A
// cancelled timer never fires, so it cannot reach a record taken again.
type hedgeOp struct {
	c      *common
	alt    run // the partner-copy run the hedge leg reads
	pri    disk.Priority
	op     *obs.Span // the primary's device-op span; legs nest beneath it
	onDone func()

	timer *sim.Call // pending hedge dispatch; nil once fired or cancelled
	done  bool      // a leg already won
	legs  int       // issued legs not yet settled

	priDoneFn, hedgeDoneFn func()
}

// readRunHedged issues a foreground read run with hedging when armed:
// the primary leg goes out immediately, and a timer dispatches the
// partner-copy leg if the primary is still unanswered after the hedge
// delay. Falls back to the plain failure-aware path whenever hedging
// does not apply.
func (c *common) readRunHedged(rn run, pri disk.Priority, op *obs.Span, onDone func()) {
	if !c.rb.on || !c.rb.cfg.hedging() {
		c.readRun(rn, pri, op, onDone)
		return
	}
	hg, ok := c.sch.(hedger)
	if !ok {
		c.readRun(rn, pri, op, onDone)
		return
	}
	if c.fs.nfailed > 0 && (c.fs.failed[rn.disk] || c.fs.failed[rn.disk^1]) {
		// Degraded pair: the failover machinery owns this read.
		c.readRun(rn, pri, op, onDone)
		return
	}
	alt, ok := hg.hedgeAlt(rn)
	if !ok {
		c.readRun(rn, pri, op, onDone)
		return
	}
	delay := c.hedgeDelay()
	if delay <= 0 {
		c.readRun(rn, pri, op, onDone)
		return
	}
	// The primary leg may outlive its request (a hedge win completes the
	// request first), and with it the record whose arena rn.lbas points
	// into. A late leg's only detour, the mirror fallback, reads no
	// lbas, so the leg carries none.
	rn.lbas = nil
	h := c.recs.hedges.take()
	if h == nil {
		h = new(hedgeOp)
		h.priDoneFn, h.hedgeDoneFn = h.priDone, h.hedgeDone
	}
	h.c, h.alt, h.pri, h.op, h.onDone, h.legs = c, alt, pri, op, onDone, 1
	h.timer = c.eng.AfterCall(delay, hedgeFire)
	h.timer.A = h
	c.readRun(rn, pri, op, h.priDoneFn)
}

// hedgeFire dispatches the speculative leg: A = the hedgeOp.
func hedgeFire(_ *sim.Engine, cl *sim.Call) {
	h := cl.A.(*hedgeOp)
	h.timer = nil
	c := h.c
	h.legs++
	c.rb.hedges++
	c.rb.hedgeLegs++
	c.cfg.Rec.HedgeIssued(c.eng.Now(), h.alt.disk)
	var leg *obs.Span
	if h.op != nil {
		leg = h.op.Child("hedge-read", c.eng.Now())
		leg.SetDisk(h.alt.disk)
		leg.SetBlocks(int(h.alt.blocks))
	}
	c.mediaRead(h.alt, h.pri, 0, 0, leg, h.hedgeDoneFn)
}

func (h *hedgeOp) priDone() { h.settle(false) }

func (h *hedgeOp) hedgeDone() {
	h.c.rb.hedgeLegs--
	h.settle(true)
}

// settle resolves one leg's completion: the first caller wins and runs
// the request's continuation, the loser is counted and swallowed. A
// primary win before the hedge delay cancels the pending timer, so its
// event never fires. The last leg to settle returns the record, before
// the continuation runs, so the continuation may take it again.
func (h *hedgeOp) settle(fromHedge bool) {
	c := h.c
	h.legs--
	if h.done {
		if fromHedge {
			c.rb.hedgeLosses++
		}
		if h.legs == 0 {
			h.release()
		}
		return
	}
	h.done = true
	if h.timer != nil {
		c.eng.Cancel(h.timer)
		h.timer = nil
	}
	if fromHedge {
		c.rb.hedgeWins++
		c.cfg.Rec.HedgeWon(c.eng.Now(), h.alt.disk)
	}
	onDone := h.onDone
	if h.legs == 0 {
		h.release()
	}
	onDone()
}

func (h *hedgeOp) release() {
	h.op, h.onDone, h.done = nil, nil, false
	h.c.recs.hedges.put(h)
}

// hedgeAlt implements hedger for the mirror family: the partner copy of
// any physical run lives at the same offset on disk^1. Only healthy
// pairs hedge.
func (s *mirrorScheme) hedgeAlt(rn run) (run, bool) {
	alt := rn.disk ^ 1
	if s.c.fs.nfailed > 0 && (s.c.fs.failed[rn.disk] || s.c.fs.failed[alt]) {
		return run{}, false
	}
	return run{disk: alt, start: rn.start, blocks: rn.blocks}, true
}
