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

	// epoch counts NVRAM cache failures. In-flight destages capture it at
	// issue time and skip their CompleteDestage bookkeeping when stale —
	// the entries they would complete died with the old cache.
	epoch int
}

// newCached wraps the scheme in the cache front-end. Parity schemes get
// old-data shadows (KeepOldData) so destage can usually skip re-reading
// old data.
func newCached(c *common, s scheme) (*cachedCtrl, error) {
	ccfg := cache.Config{Blocks: c.cfg.CacheBlocks, KeepOldData: s.keepOldData()}
	nvc, err := cache.New(ccfg)
	if err != nil {
		return nil, err
	}
	cc := &cachedCtrl{common: c, s: s, c: nvc, ccfg: ccfg}
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

// writeBackMarked persists cached dirty blocks already marked as
// destaging and calls onDone when they are clean on disk: one scheme
// write, with the epoch-guarded destage-completion bookkeeping wrapped
// around the scheme's completion. spread distributes the issues over a
// window to limit interference.
func (cc *cachedCtrl) writeBackMarked(lbas []int64, pri disk.Priority, spread sim.Time, sp *obs.Span, onDone func()) {
	ep := cc.epoch
	cc.s.write(writeOp{
		lbas:   lbas,
		pri:    pri,
		spread: spread,
		hasOld: cc.hasOld,
		span:   sp,
		onDone: func() {
			if cc.epoch == ep {
				for _, l := range lbas {
					cc.c.CompleteDestage(l)
				}
			}
			onDone()
		},
	})
}

// writeBack marks the blocks as destaging and persists them.
func (cc *cachedCtrl) writeBack(lbas []int64, pri disk.Priority, spread sim.Time, sp *obs.Span, onDone func()) {
	for _, l := range lbas {
		cc.c.BeginDestage(l)
	}
	cc.writeBackMarked(lbas, pri, spread, sp, onDone)
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

// DataBlocks implements Controller.
func (cc *cachedCtrl) DataBlocks() int64 { return cc.s.dataBlocks() }

// Results implements Controller.
func (cc *cachedCtrl) Results() *Results {
	r := cc.baseResults(cc.s.org())
	r.Cache = cc.c.S
	return r
}

// destageChunk bounds how many blocks one write-back batch may carry, so
// a large destage neither seizes the whole track-buffer pool nor floods
// the disk queues at once.
const destageChunk = 16

// destageTick writes back all currently dirty blocks in chunks staggered
// across 80% of the destage period, so the asynchronous writes interfere
// minimally with foreground reads. Chunks keep stripe-adjacent blocks
// together (the candidate list is LBA-sorted), preserving most
// full-stripe write-back opportunities.
func (cc *cachedCtrl) destageTick() {
	lbas := cc.c.DirtyNotDestaging()
	if len(lbas) == 0 {
		return
	}
	cc.cfg.Rec.Destage(cc.eng.Now(), len(lbas))
	spread := cc.cfg.DestagePeriod / 5
	nchunks := (len(lbas) + destageChunk - 1) / destageChunk
	gap := spread / sim.Time(nchunks)
	for i := 0; i < nchunks; i++ {
		chunk := lbas[i*destageChunk : min(len(lbas), (i+1)*destageChunk)]
		// Mark now so the next tick (or a concurrent victim flush) does
		// not pick the same blocks; the delayed write-back skips the
		// marking step.
		for _, l := range chunk {
			cc.c.BeginDestage(l)
		}
		// Destage accesses run at normal priority — the paper limits
		// their interference by scheduling them progressively (the
		// stagger), not by preempting them. Each chunk is its own
		// background trace tree, linking the destage to the cache writes
		// that dirtied it by LBA.
		issue := func() {
			var root *obs.Span
			if cc.tr != nil {
				root = cc.tr.StartBackground("destage", cc.eng.Now())
				root.SetBlocks(len(chunk))
			}
			cc.writeBackMarked(chunk, disk.PriNormal, gap, root, func() {
				if root != nil {
					cc.tr.FinishBackground(root, cc.eng.Now())
				}
			})
		}
		if i == 0 {
			issue()
			continue
		}
		cc.eng.After(gap*sim.Time(i), issue)
	}
}

// makeRoom frees cache slots until at least want are available, then runs
// fn. Clean victims are dropped; a dirty victim must first be written to
// disk — the cost the destage process exists to make rare. Time spent
// here is the cache-destage stall of the latency breakdown.
func (cc *cachedCtrl) makeRoom(want int, sp *obs.Span, fn func()) {
	t0 := cc.eng.Now()
	cc.makeRoomFrom(want, t0, sp, fn)
}

func (cc *cachedCtrl) makeRoomFrom(want int, t0 sim.Time, sp *obs.Span, fn func()) {
	for cc.c.FreeSlots() < want {
		v := cc.c.Victim()
		if v == nil {
			// Everything is mid-destage; retry shortly.
			cl := cc.eng.AfterCall(sim.Millisecond, makeRoomRetryFire)
			cl.A, cl.B, cl.C = cc, sp, fn
			cl.N0, cl.N1 = int64(want), t0
			return
		}
		if v.Dirty {
			lba := v.LBA
			cc.c.NoteDirtyEviction()
			var ev *obs.Span
			if sp != nil {
				ev = sp.Child("evict-write", cc.eng.Now())
			}
			cc.writeBack([]int64{lba}, disk.PriNormal, 0, ev, func() {
				ev.CloseAt(cc.eng.Now())
				if e := cc.c.Lookup(lba); e != nil && !e.Dirty && !e.Destaging {
					cc.c.Drop(lba)
				}
				cc.makeRoomFrom(want, t0, sp, fn)
			})
			return
		}
		cc.c.Drop(v.LBA)
	}
	if now := cc.eng.Now(); now > t0 {
		sp.ChildSpan(obs.SpanStall, t0, now)
	}
	cc.stages.DestageStallMS += sim.Millis(cc.eng.Now() - t0)
	fn()
}

// makeRoomRetryFire re-runs a stalled makeRoom pass: A = controller,
// B = the request span (nil *obs.Span when untraced), C = continuation,
// N0 = wanted slots, N1 = the stall's start time.
func makeRoomRetryFire(_ *sim.Engine, cl *sim.Call) {
	cc := cl.A.(*cachedCtrl)
	cc.makeRoomFrom(int(cl.N0), cl.N1, cl.B.(*obs.Span), cl.C.(func()))
}

// Submit implements Controller.
func (cc *cachedCtrl) Submit(r Request) {
	cc.checkRequest(r, cc.s.dataBlocks())
	if cc.maybeShed(r) {
		return
	}
	start, sp := cc.begin(r.Op != trace.Read)
	if r.Op == trace.Read {
		cc.read(r, start, sp)
	} else {
		cc.write(r, start, sp)
	}
}

// read serves hits from the cache (channel time only) and fetches misses
// from disk. A multiblock request counts as a hit only when every block
// is cached.
func (cc *cachedCtrl) read(r Request, start sim.Time, sp *obs.Span) {
	var missing []int64
	for i := 0; i < r.Blocks; i++ {
		l := r.LBA + int64(i)
		if !cc.c.Touch(l) {
			missing = append(missing, l)
		}
	}
	measured := start >= cc.cfg.Warmup
	if len(missing) == 0 {
		if measured {
			cc.readHits++
		}
		cc.chanXferSpan(r.Blocks, sp, func() { cc.finish(r, start, sp) })
		return
	}
	if measured {
		cc.readMisses++
	}
	cc.makeRoom(len(missing), sp, func() {
		// A concurrent miss may have inserted some blocks meanwhile.
		fetch := missing[:0]
		for _, l := range missing {
			if !cc.c.Contains(l) {
				cc.c.Insert(l, false)
				fetch = append(fetch, l)
			}
		}
		if len(fetch) == 0 {
			cc.chanXferSpan(r.Blocks, sp, func() { cc.finish(r, start, sp) })
			return
		}
		q := cc.newReq(r, start, sp)
		cc.readRuns(q, cc.s.fetchRuns(&q.rb, fetch))
	})
}

// write lands the data in the NV cache: channel transfer, then per-block
// bookkeeping. The response completes without touching a disk unless a
// dirty block must be evicted to make room.
func (cc *cachedCtrl) write(r Request, start sim.Time, sp *obs.Span) {
	allHit := true
	for i := 0; i < r.Blocks; i++ {
		if !cc.c.Contains(r.LBA + int64(i)) {
			allHit = false
			break
		}
	}
	if start >= cc.cfg.Warmup {
		if allHit {
			cc.writeHits++
		} else {
			cc.writeMisses++
		}
	}
	cc.chanXferSpan(r.Blocks, sp, func() {
		cc.insertDirty(r.LBA, r.Blocks, 0, sp, func() { cc.finish(r, start, sp) })
	})
}

// insertDirty processes block i of the write, serializing room-making.
func (cc *cachedCtrl) insertDirty(lba int64, n, i int, sp *obs.Span, done func()) {
	if i == n {
		done()
		return
	}
	l := lba + int64(i)
	if cc.c.Contains(l) {
		cc.c.MarkDirty(l)
		cc.insertDirty(lba, n, i+1, sp, done)
		return
	}
	cc.makeRoom(1, sp, func() {
		if cc.c.Contains(l) {
			cc.c.MarkDirty(l)
		} else {
			cc.c.Insert(l, true)
		}
		cc.insertDirty(lba, n, i+1, sp, done)
	})
}
