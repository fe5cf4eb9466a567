package array

import (
	"raidsim/internal/cache"
	"raidsim/internal/disk"
	"raidsim/internal/obs"
	"raidsim/internal/sim"
	"raidsim/internal/trace"
)

// cachedCtrl is the NV-cache front-end, written once and working for
// every scheme: hit/miss accounting, the periodic destage ticker,
// room-making (eviction) and the read/write request paths. Everything
// organization-specific — how a destage batch reaches the disks, how a
// read-miss fetch is laid out — is delegated to the scheme underneath.
type cachedCtrl struct {
	*common
	s      scheme
	c      *cache.Cache
	ccfg   cache.Config
	ticker *sim.Ticker

	// epoch counts NVRAM cache failures. Write-backs capture it when they
	// mark their blocks destaging and skip their CompleteDestage
	// bookkeeping when stale — the entries they would complete died with
	// the old cache.
	epoch int

	hasOldFn func(int64) bool // hasOld, bound once for every writeOp
	dirty    []int64          // destageTick's candidate buffer
}

// newCached wraps the scheme in the cache front-end; parity organizations
// keep old-data shadows so destage can usually skip re-reading old data.
func newCached(c *common, s scheme) (*cachedCtrl, error) {
	ccfg := cache.Config{Blocks: c.cfg.CacheBlocks, KeepOldData: c.cfg.Org.Redundancy() == Parity}
	nvc, err := cache.New(ccfg)
	if err != nil {
		return nil, err
	}
	cc := &cachedCtrl{common: c, s: s, c: nvc, ccfg: ccfg}
	cc.hasOldFn = cc.hasOld
	// cc.c is read at sample time, so the closure survives the cache
	// module being swapped out after an NVRAM failure.
	c.dirtyFrac = func() float64 {
		return float64(cc.c.DirtyCount()) / float64(cc.c.Capacity())
	}
	cc.initDestage()
	return cc, nil
}

// hasOld reports whether the pre-write image of a block is in the cache.
func (cc *cachedCtrl) hasOld(l int64) bool {
	e := cc.c.Lookup(l)
	return e != nil && e.HasOld
}

func (cc *cachedCtrl) initDestage() {
	cc.fs.onCacheFail = cc.cacheFailed
	if cc.cfg.PureLRUWriteback {
		return
	}
	cc.ticker = sim.NewTicker(cc.eng, cc.cfg.DestagePeriod, cc.destageTick)
}

// cacheFailed models NVRAM death: every dirty block not yet on disk is
// lost, and a fresh (empty) cache module is swapped in. Destages already
// in flight keep running — their disk writes are harmless — but their
// completion bookkeeping is epoch-guarded away.
func (cc *cachedCtrl) cacheFailed() {
	lost := cc.c.DirtyNotDestagingCount()
	cc.fs.dirtyLost += int64(lost)
	cc.cfg.Rec.Note(obs.Event{At: cc.eng.Now(), Kind: obs.EvCacheFail, Blocks: lost})
	cc.epoch++
	fresh, err := cache.New(cc.ccfg)
	if err != nil {
		// The same config built the original cache; failure here is a bug.
		panic(err)
	}
	cc.c = fresh
}

// Results implements Controller.
func (cc *cachedCtrl) Results() *Results {
	r := cc.baseResults()
	r.Cache = cc.c.S
	return r
}

// Release implements Controller: the live cache goes back for cache.New
// to recycle. A module that cacheFailed swapped out is never released;
// it is left to the garbage collector with whatever state it died in.
func (cc *cachedCtrl) Release() {
	cc.c.Release()
	cc.c = nil
}

// destageChunk bounds how many blocks one write-back batch may carry, so
// a large destage neither seizes the whole track-buffer pool nor floods
// the disk queues at once.
const destageChunk = 16

// destageTick writes back all currently dirty blocks in chunks staggered
// across a fifth of the destage period, so the asynchronous writes interfere
// minimally with foreground reads. Chunks keep stripe-adjacent blocks
// together (the candidate list is LBA-sorted), preserving most
// full-stripe write-back opportunities.
func (cc *cachedCtrl) destageTick() {
	cc.dirty = cc.c.DirtyNotDestaging(cc.dirty[:0])
	lbas := cc.dirty
	if len(lbas) == 0 {
		return
	}
	cc.cfg.Rec.Destage(cc.eng.Now(), len(lbas))
	spread := cc.cfg.DestagePeriod / 5
	nchunks := (len(lbas) + destageChunk - 1) / destageChunk
	gap := spread / sim.Time(nchunks)
	for i := 0; i < nchunks; i++ {
		// Mark now so the next tick (or a concurrent victim flush) does
		// not pick the same blocks; the delayed issue only writes.
		w := cc.newWriteBack(lbas[i*destageChunk:min(len(lbas), (i+1)*destageChunk)], gap)
		if i == 0 {
			w.issue()
			continue
		}
		cc.eng.After(gap*sim.Time(i), w.issueFn)
	}
}

// wbRec is one write-back in flight, a destage chunk or a dirty victim's
// flush, from marking its blocks destaging until they are clean on disk.
// It owns a copy of the blocks: the scheme's batch reads them until it
// completes, and the epoch-guarded completion walks them after that.
type wbRec struct {
	cc     *cachedCtrl
	lbas   []int64
	ep     int      // the cache epoch the blocks were marked under
	spread sim.Time // stagger window for the batch's device writes
	// span parents the scheme's device-op spans: a destage chunk's own
	// background root, or a victim flush's evict-write child. Nil when
	// tracing is off.
	span *obs.Span
	// onDone continues a victim flush; nil marks a destage chunk, which
	// finishes its background root instead.
	onDone func()

	issueFn, doneFn func()
}

// newWriteBack takes a write-back record for lbas and marks them as
// destaging, so they are neither picked as victims nor destaged twice.
func (cc *cachedCtrl) newWriteBack(lbas []int64, spread sim.Time) *wbRec {
	w := cc.recs.writeBacks.take()
	if w == nil {
		w = &wbRec{cc: cc}
		w.issueFn, w.doneFn = w.issue, w.done
	}
	w.lbas = append(w.lbas[:0], lbas...)
	w.ep, w.spread = cc.epoch, spread
	for _, l := range lbas {
		cc.c.BeginDestage(l)
	}
	return w
}

// issue sends a destage chunk to the disks. Destage accesses run at
// normal priority — the paper limits their interference by scheduling
// them progressively (the stagger), not by preempting them. Each chunk
// is its own background trace tree, linking the destage to the cache
// writes that dirtied it by LBA.
func (w *wbRec) issue() {
	cc := w.cc
	if cc.tr != nil {
		w.span = cc.tr.StartBackground("destage", cc.eng.Now())
		w.span.SetBlocks(len(w.lbas))
	}
	w.write()
}

// write hands the blocks to the scheme as one batch.
func (w *wbRec) write() {
	w.cc.s.write(writeOp{
		lbas:   w.lbas,
		pri:    disk.PriNormal,
		spread: w.spread,
		hasOld: w.cc.hasOldFn,
		span:   w.span,
		onDone: w.doneFn,
	})
}

// done is the batch's completion: the blocks become clean (unless the
// cache they were marked in has since died), then the record is
// returned and the write-back's owner continues.
func (w *wbRec) done() {
	cc := w.cc
	if cc.epoch == w.ep {
		for _, l := range w.lbas {
			cc.c.CompleteDestage(l)
		}
	}
	sp, onDone := w.span, w.onDone
	w.span, w.onDone = nil, nil
	cc.recs.writeBacks.put(w)
	if onDone != nil {
		onDone()
		return
	}
	if sp != nil {
		cc.tr.FinishBackground(sp, cc.eng.Now())
	}
}

// makeRoom frees cache slots until at least want are available, then runs
// fn. Clean victims are dropped; a dirty victim must first be written to
// disk — the cost the destage process exists to make rare. Time spent
// here is the cache-destage stall of the latency breakdown.
func (cc *cachedCtrl) makeRoom(want int, sp *obs.Span, fn func()) {
	if cc.c.FreeSlots() >= want {
		fn() // nothing to evict, no stall to account
		return
	}
	m := cc.recs.rooms.take()
	if m == nil {
		m = &roomRec{cc: cc}
		m.evictedFn = m.evicted
	}
	m.want, m.t0, m.sp, m.fn = want, cc.eng.Now(), sp, fn
	m.run()
}

// roomRec is one makeRoom wait in flight: the slots wanted, when the
// wait began, the request's trace root, the continuation, and the dirty
// victim being flushed with its evict-write span.
type roomRec struct {
	cc     *cachedCtrl
	want   int
	t0     sim.Time
	sp, ev *obs.Span
	fn     func()
	victim int64

	evictedFn func()
}

// run evicts until the wanted slots are free, suspending on a dirty
// victim's flush or, when every entry is mid-destage, a short retry.
func (m *roomRec) run() {
	cc := m.cc
	for cc.c.FreeSlots() < m.want {
		v := cc.c.Victim()
		if v == nil {
			// Everything is mid-destage; retry shortly.
			cc.eng.AfterCall(sim.Millisecond, makeRoomRetryFire).A = m
			return
		}
		if v.Dirty {
			m.victim = v.LBA
			cc.c.NoteDirtyEviction()
			if m.sp != nil {
				m.ev = m.sp.Child("evict-write", cc.eng.Now())
			}
			w := cc.newWriteBack([]int64{m.victim}, 0)
			w.span, w.onDone = m.ev, m.evictedFn
			w.write()
			return
		}
		cc.c.Drop(v.LBA)
	}
	now := cc.eng.Now()
	if now > m.t0 {
		m.sp.ChildSpan(obs.SpanStall, m.t0, now)
	}
	cc.stages.DestageStallMS += sim.Millis(now - m.t0)
	fn := m.fn
	m.sp, m.ev, m.fn = nil, nil, nil
	cc.recs.rooms.put(m)
	fn()
}

// evicted continues after a dirty victim's flush: the victim is dropped
// if it is still clean and idle, and eviction resumes.
func (m *roomRec) evicted() {
	cc := m.cc
	m.ev.CloseAt(cc.eng.Now())
	m.ev = nil
	if e := cc.c.Lookup(m.victim); e != nil && !e.Dirty && !e.Destaging {
		cc.c.Drop(m.victim)
	}
	m.run()
}

// makeRoomRetryFire re-runs a stalled makeRoom pass: A = its *roomRec.
func makeRoomRetryFire(_ *sim.Engine, cl *sim.Call) {
	cl.A.(*roomRec).run()
}

// Submit implements Controller.
func (cc *cachedCtrl) Submit(r Request) {
	cc.checkRequest(r)
	if cc.maybeShed(r) {
		return
	}
	start, sp := cc.begin(r.Op != trace.Read)
	q := cc.newCReq(r, start, sp)
	if r.Op == trace.Read {
		q.read()
	} else {
		q.write()
	}
}

// creqRec is one request in the cache front-end: a read until its
// misses have room and are handed to the disks (in a reqRec), a write
// until its last block lands in the cache.
type creqRec struct {
	cc    *cachedCtrl
	r     Request
	start sim.Time
	sp    *obs.Span
	miss  []int64   // read: the blocks not cached on arrival
	next  int       // write: the next block to land
	ch    *obs.Span // the open channel span of a transfer, when traced

	fetchFn, insertFn, placeFn, finishFn func()
}

// newCReq takes a front-end record for r, which began at start under the
// trace root sp.
func (cc *cachedCtrl) newCReq(r Request, start sim.Time, sp *obs.Span) *creqRec {
	q := cc.recs.creqs.take()
	if q == nil {
		q = &creqRec{cc: cc}
		q.fetchFn, q.insertFn, q.placeFn, q.finishFn = q.fetch, q.insert, q.place, q.finish
	}
	q.r, q.start, q.sp = r, start, sp
	return q
}

// release returns the record to its pool.
func (q *creqRec) release() {
	q.r, q.sp, q.miss, q.next = Request{}, nil, q.miss[:0], 0
	q.cc.recs.creqs.put(q)
}

// finish is the request's final callback. The record is returned before
// the response is accounted, because accounting runs OnComplete.
func (q *creqRec) finish() {
	q.cc.closeChan(&q.ch)
	cc, r, start, sp := q.cc, q.r, q.start, q.sp
	q.release()
	cc.finish(r, start, sp)
}

// read serves hits from the cache (channel time only) and fetches misses
// from disk. A multiblock request counts as a hit only when every block
// is cached.
func (q *creqRec) read() {
	cc, r := q.cc, q.r
	for i := 0; i < r.Blocks; i++ {
		l := r.LBA + int64(i)
		if !cc.c.Touch(l) {
			q.miss = append(q.miss, l)
		}
	}
	measured := q.start >= cc.cfg.Warmup
	if len(q.miss) == 0 {
		if measured {
			cc.readHits++
		}
		q.ch = cc.chanXferUnder(q.sp, r.Blocks, q.finishFn)
		return
	}
	if measured {
		cc.readMisses++
	}
	cc.makeRoom(len(q.miss), q.sp, q.fetchFn)
}

// fetch runs once the misses have room: it caches the blocks still
// absent and reads them from disk.
func (q *creqRec) fetch() {
	cc := q.cc
	// A concurrent miss may have inserted some blocks meanwhile.
	fetch := q.miss[:0]
	for _, l := range q.miss {
		if cc.c.InsertIfAbsent(l, false) {
			fetch = append(fetch, l)
		}
	}
	if len(fetch) == 0 {
		q.ch = cc.chanXferUnder(q.sp, q.r.Blocks, q.finishFn)
		return
	}
	rq := cc.newReq(q.r, q.start, q.sp)
	runs := cc.s.fetchRuns(&rq.rb, fetch)
	q.release()
	cc.readRuns(rq, runs)
}

// write lands the data in the NV cache: channel transfer, then per-block
// bookkeeping. The response completes without touching a disk unless a
// dirty block must be evicted to make room.
func (q *creqRec) write() {
	cc, r := q.cc, q.r
	allHit := true
	for i := 0; i < r.Blocks; i++ {
		if !cc.c.Contains(r.LBA + int64(i)) {
			allHit = false
			break
		}
	}
	if q.start >= cc.cfg.Warmup {
		if allHit {
			cc.writeHits++
		} else {
			cc.writeMisses++
		}
	}
	q.ch = cc.chanXferUnder(q.sp, r.Blocks, q.insertFn)
}

// insert lands the write's blocks in order from q.next, serializing
// room-making: a cached block is marked dirty at once, an uncached one
// waits for a free slot.
func (q *creqRec) insert() {
	cc := q.cc
	cc.closeChan(&q.ch)
	for ; q.next < q.r.Blocks; q.next++ {
		if !cc.c.MarkDirty(q.r.LBA + int64(q.next)) {
			cc.makeRoom(1, q.sp, q.placeFn)
			return
		}
	}
	q.finish()
}

// place lands the block that waited for room, then the rest.
func (q *creqRec) place() {
	cc := q.cc
	if l := q.r.LBA + int64(q.next); !cc.c.InsertIfAbsent(l, true) {
		cc.c.MarkDirty(l)
	}
	q.next++
	q.insert()
}
