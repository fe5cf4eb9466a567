package array

import (
	"sync"

	"raidsim/internal/disk"
	"raidsim/internal/obs"
	"raidsim/internal/sim"
)

// Pooled request records.
//
// The common request path takes its working state from per-controller
// free lists instead of allocating closures, latches and slices for
// every request. A record's continuations are method values bound once,
// when the record is first made, so handing one to the buffer pool, the
// channel or a drive as a func() allocates nothing. The free lists
// outlive their controller: Release hands them to idleRecs, and the next
// controller New builds takes them, so a record's slices keep the
// capacity earlier runs grew. A method value is bound to the record
// itself, so only the record's back-pointer to its controller changes
// hands: every take sets it, and Release clears it. A record goes back
// to its free list in its own final callback, after copying out what
// that callback still needs, and nothing reads it afterwards: a
// continuation that submits new work (a closed-loop client's OnComplete)
// may be handed the same record back. A record is never released while
// the loop issuing its accesses is still running: its final completion
// waits on at least one device access, and a drive reports completions
// as later engine events, never inside the Submit that issued them.

// pool is a free list of one record type.
type pool[T any] struct {
	free []*T
	live int // records taken and not yet returned
}

// take pops a free record, or returns nil for the caller to make one;
// either way the record counts as live until put.
func (p *pool[T]) take() *T {
	p.live++
	n := len(p.free)
	if n == 0 {
		return nil
	}
	x := p.free[n-1]
	p.free = p.free[:n-1]
	return x
}

func (p *pool[T]) put(x *T) {
	p.live--
	p.free = append(p.free, x)
}

// detach runs cut on every free record, to clear its back-pointer, and
// forgets the records still live: they belong to a run that is over.
func (p *pool[T]) detach(cut func(*T)) {
	for _, x := range p.free {
		cut(x)
	}
	p.live = 0
}

// recPools holds a controller's free lists. hedges serves hedged reads
// (robust.go); the last three serve only the cache front-end
// (cached.go).
type recPools struct {
	reqs       pool[reqRec]
	reads      pool[readRec]
	hedges     pool[hedgeOp]
	batches    pool[batchRec]
	creqs      pool[creqRec]
	rooms      pool[roomRec]
	writeBacks pool[wbRec]
}

// idleRecs holds the free lists of released controllers for New to
// recycle. An item survives one garbage collection in it, not two.
var idleRecs = sync.Pool{New: func() any { return new(recPools) }}

// Release implements Controller: the free lists go to idleRecs, each
// free record cut loose from c, so that a pooled record reaches nothing
// of this run. A record still live when the run ends (a destage in
// flight) is left to the garbage collector.
func (c *common) Release() {
	r := c.recs
	r.reqs.detach(func(q *reqRec) { q.c = nil })
	r.reads.detach(func(m *readRec) { m.c = nil })
	r.hedges.detach(func(h *hedgeOp) { h.c = nil })
	r.batches.detach(func(b *batchRec) { b.c = nil })
	r.creqs.detach(func(q *creqRec) { q.cc = nil })
	r.rooms.detach(func(m *roomRec) { m.cc = nil })
	r.writeBacks.detach(func(w *wbRec) { w.cc = nil })
	idleRecs.Put(r)
	c.recs = nil
}

// liveRecords counts records taken and not yet returned: zero once the
// controller has drained and no destage batch is in flight.
func (c *common) liveRecords() int {
	r := c.recs
	return r.reqs.live + r.reads.live + r.hedges.live + r.batches.live + r.creqs.live + r.rooms.live + r.writeBacks.live
}

// countDown signals one completion on an outstanding count (a latch's
// or a record's) and reports whether it was the last. It panics when
// signalled more often than counted.
func countDown(n *int) bool {
	*n--
	if *n < 0 {
		panic("array: latch over-released")
	}
	return *n == 0
}

// reqRec is one foreground request in flight: the request with its start
// time and trace root, its logical blocks, and for reads the runs being
// fetched and how many are still outstanding.
type reqRec struct {
	c     *common
	r     Request
	start sim.Time
	sp    *obs.Span
	lbas  []int64 // [r.LBA, r.LBA+r.Blocks)
	rb    runBuf
	runs  []run
	left  int       // run reads outstanding
	ch    *obs.Span // the open channel span of the transfer, when traced

	admitStart sim.Time

	admitFn, runDoneFn, xferDoneFn, finishFn func()
}

// newReq takes a request record for r, which began at start under the
// trace root sp.
func (c *common) newReq(r Request, start sim.Time, sp *obs.Span) *reqRec {
	q := c.recs.reqs.take()
	if q == nil {
		q = new(reqRec)
		q.admitFn, q.runDoneFn, q.xferDoneFn, q.finishFn = q.admit, q.runDone, q.xferDone, q.finish
	}
	q.c, q.r, q.start, q.sp = c, r, start, sp
	q.lbas = appendSpan(q.lbas[:0], r.LBA, r.Blocks)
	return q
}

// finish is the request's final callback. The record is returned before
// the response is accounted, because accounting runs OnComplete.
func (q *reqRec) finish() {
	c, r, start, sp := q.c, q.r, q.start, q.sp
	q.r, q.sp, q.runs = Request{}, nil, nil
	c.recs.reqs.put(q)
	c.finish(r, start, sp)
}

// readRuns performs the reads of runs for request q, then one channel
// transfer of the whole request, then completes it. Shared by every
// organization; readRun makes every path failure- and sector-error-aware.
func (c *common) readRuns(q *reqRec, runs []run) {
	q.runs = runs
	q.admitStart = c.eng.Now()
	c.buf.Acquire(len(runs), q.admitFn)
}

// admit runs once the read's track buffers are granted.
func (q *reqRec) admit() {
	c, sp := q.c, q.sp
	if now := c.eng.Now(); now > q.admitStart {
		sp.ChildSpan(obs.SpanAdmit, q.admitStart, now)
	}
	q.left = len(q.runs)
	for _, rn := range q.runs {
		var op *obs.Span
		if sp != nil {
			op = sp.Child("read-data", c.eng.Now())
			op.SetBlocks(int(rn.blocks))
		}
		c.readRunHedged(rn, disk.PriNormal, op, q.runDoneFn)
	}
}

func (q *reqRec) runDone() {
	if countDown(&q.left) {
		q.ch = q.c.chanXferUnder(q.sp, q.r.Blocks, q.xferDoneFn)
	}
}

func (q *reqRec) xferDone() {
	q.c.closeChan(&q.ch)
	q.c.buf.Release(len(q.runs))
	q.finish()
}

// readRec is one device read pass in flight (see mediaRead), with the
// disk.Request it submits embedded.
type readRec struct {
	c          *common
	rn         run
	pri        disk.Priority
	tries, att int
	op         *obs.Span
	onDone     func()
	req        disk.Request
	doneFn     func()
}

// batchRec is one write batch in flight, a foreground write or a destage
// chunk, from track-buffer admission to its last device write. Plain
// organizations issue runs; parity organizations execute plan.
type batchRec struct {
	c    *common
	w    writeOp
	rb   runBuf
	runs []run // plain writes: the runs to issue
	plan updatePlan
	// rmw, when non-nil, flags the plain runs that read old data first;
	// afterIssue, when non-nil, runs once every plain run is submitted.
	// Parity logging uses both: its data legs are the plan's, and its
	// update images are logged behind them.
	rmw        []bool
	afterIssue func(*batchRec)

	// Parity update execution (see executeUpdate).
	policy  SyncPolicy
	stagger sim.Time // spacing between successive data-run issues
	// parityIssuer, when non-nil, replaces the default parity disk access
	// (RAID4 spools parity into the cache instead). It must call done
	// exactly once; ready reports whether all old-data inputs are read.
	parityIssuer func(pr parityRun, ready func() bool, done func())
	// dataBufs track buffers are released once all data runs complete —
	// before parity necessarily does. RAID4 holds its buffers this way,
	// since spooled parity needs cache slots, not buffers.
	dataBufs  int
	parityPri disk.Priority

	nbuf       int // track buffers released when the batch completes
	admitStart sim.Time
	issue      func()    // runs once buffers and the channel are through
	ch         *obs.Span // the open channel span of the transfer, when traced

	// legs holds one record per device write: data runs first, then
	// parity run i at legs[nd+i]. Legs persist with the batch record.
	legs           []*legRec
	nd             int
	left, dataLeft int // legs and data legs outstanding

	admitFn, xferDoneFn, legDoneFn, dataDoneFn, finishFn, plainFn, updateFn func()
}

// legRec is one device write of a batch. Data legs list the parity runs
// their old data feeds; parity legs count the feeding reads and starts
// still outstanding.
type legRec struct {
	b                     *batchRec
	req                   disk.Request
	feeds                 []int
	readsLeft, startsLeft int
	issued                bool

	onStartFn, onReadDoneFn func()
	readyFn                 func() bool
}

// newBatch takes a batch record for w.
func (c *common) newBatch(w writeOp) *batchRec {
	b := c.recs.batches.take()
	if b == nil {
		b = new(batchRec)
		b.admitFn, b.xferDoneFn, b.legDoneFn, b.dataDoneFn, b.finishFn = b.admitted, b.xferDone, b.legDone, b.dataDone, b.finish
		b.plainFn, b.updateFn = b.issuePlain, b.executeUpdate
	}
	b.c, b.w = c, w
	return b
}

// finish is the batch's final callback: return the record, release the
// track buffers still held, and report completion.
func (b *batchRec) finish() {
	c, n, onDone := b.c, b.nbuf, b.w.onDone
	b.w, b.runs, b.rmw, b.afterIssue, b.issue = writeOp{}, nil, nil, nil, nil
	b.policy, b.stagger, b.parityIssuer, b.dataBufs, b.nbuf = SI, 0, nil, 0, 0
	for _, lg := range b.legs {
		lg.req.Span = nil
	}
	c.recs.batches.put(b)
	c.buf.Release(n)
	onDone()
}

// admit acquires n track buffers, then — for foreground writes — moves
// the data over the channel, then runs issue.
func (b *batchRec) admit(n int, issue func()) {
	b.issue = issue
	b.admitStart = b.c.eng.Now()
	b.c.buf.Acquire(n, b.admitFn)
}

func (b *batchRec) admitted() {
	c := b.c
	if now := c.eng.Now(); now > b.admitStart {
		b.w.span.ChildSpan(obs.SpanAdmit, b.admitStart, now)
	}
	if b.w.xfer > 0 {
		b.ch = c.chanXferUnder(b.w.span, b.w.xfer, b.xferDoneFn)
	} else {
		b.issue()
	}
}

func (b *batchRec) xferDone() {
	b.c.closeChan(&b.ch)
	b.issue()
}

// leg returns the batch's i-th leg, making legs up to it on first use.
func (b *batchRec) leg(i int) *legRec {
	for len(b.legs) <= i {
		lg := &legRec{b: b}
		lg.onStartFn, lg.onReadDoneFn, lg.readyFn = lg.onStart, lg.onReadDone, lg.ready
		b.legs = append(b.legs, lg)
	}
	return b.legs[i]
}

func (b *batchRec) legDone() {
	if countDown(&b.left) {
		b.finish()
	}
}

func (b *batchRec) dataDone() {
	if countDown(&b.dataLeft) && b.dataBufs > 0 {
		b.c.buf.Release(b.dataBufs)
	}
	b.legDone()
}

// submitLeg issues a data write: staggered by i slots when the batch
// spreads its issues, else now under its device-op span.
func (b *batchRec) submitLeg(i int, d *disk.Disk, req *disk.Request) {
	c := b.c
	if b.stagger > 0 && i > 0 {
		cl := c.eng.AfterCall(b.stagger*sim.Time(i), submitWriteFire)
		cl.A, cl.B, cl.C = d, req, b.w.span
		return
	}
	if b.w.span != nil {
		name := "write-data"
		if req.RMW {
			name = "rmw-data"
		}
		req.Span = b.w.span.Child(name, c.eng.Now())
		req.Span.SetBlocks(req.Blocks)
	}
	d.Submit(req)
}
