package array

import (
	"raidsim/internal/disk"
	"raidsim/internal/obs"
	"raidsim/internal/sim"
	"raidsim/internal/trace"
)

// scheme is the redundancy mapping of one organization: how logical
// blocks become device reads and writes, in normal and degraded mode.
// A scheme only maps and issues device operations — the shared request
// envelope (track buffers, channel transfer, response accounting) and
// the optional NV-cache front-end live above it, the disk/bus back-end
// below. The same scheme instance therefore serves both the non-cached
// controller (schemeCtrl) and the cached one (cachedCtrl).
type scheme interface {
	// fetchRuns lays out a read of the given blocks in normal mode, in
	// rb's storage; degraded reads recover per-run via readFallback.
	fetchRuns(rb *runBuf, lbas []int64) []run
	// write persists a batch of blocks, honoring degraded mode. The
	// writeOp says whether this is a foreground write (xfer > 0: move
	// the data over the channel first) or a cache destage (xfer == 0).
	write(w writeOp)

	// The degraded-mode mapping, called from the shared fault machinery:
	// onFail classifies a fresh failure of slot d (data-loss accounting),
	// rebuildSources appends to dst the disks a rebuild of slot d reads
	// from (none means reconstruction is impossible), and readFallback
	// serves a read run whose home disk is unreadable from redundancy,
	// returning false when the data is unrecoverable.
	// op is the device-op span the failed read was issued under (nil when
	// tracing is off); recovery legs hang their spans beneath it.
	onFail(d int)
	rebuildSources(dst []int, d int) []int
	readFallback(rn run, pri disk.Priority, op *obs.Span, onDone func()) bool
}

// writeOp is one batch of blocks for a scheme to persist.
type writeOp struct {
	lbas []int64
	// xfer, when positive, is a foreground write: that many blocks move
	// over the array channel (after buffer acquisition) before any disk
	// is touched. Zero means a destage — the data is already in the
	// controller.
	xfer   int
	pri    disk.Priority
	spread sim.Time // stagger window for background batches; 0 = none
	// hasOld reports whether the pre-write image of a block is already
	// in the controller (cache shadow); nil means never.
	hasOld func(int64) bool
	// span is the parent trace span the scheme's device-op spans attach
	// to: the request's root for foreground writes, a background tree's
	// root for destage batches. Nil when tracing is off.
	span   *obs.Span
	onDone func()
}

// schemeCtrl is the generic non-cached controller: any scheme behind
// the shared read/write envelope.
type schemeCtrl struct {
	*common
	s scheme
}

// Results implements Controller.
func (sc *schemeCtrl) Results() *Results { return sc.baseResults() }

// Submit implements Controller.
func (sc *schemeCtrl) Submit(r Request) {
	sc.checkRequest(r)
	if sc.maybeShed(r) {
		return
	}
	start, sp := sc.begin(r.Op != trace.Read)
	q := sc.newReq(r, start, sp)
	if r.Op == trace.Read {
		sc.readRuns(q, sc.s.fetchRuns(&q.rb, q.lbas))
		return
	}
	sc.s.write(writeOp{
		lbas: q.lbas, xfer: r.Blocks, pri: disk.PriNormal, span: sp,
		onDone: q.finishFn,
	})
}

// plainWrite issues plain (non-parity) write runs behind the standard
// envelope: track buffers, foreground channel transfer, and the optional
// stagger that spaces background batches out.
func (b *batchRec) plainWrite(runs []run) {
	b.runs = runs
	if len(runs) > 1 && b.w.spread > 0 {
		b.stagger = b.w.spread / sim.Time(len(runs))
	}
	b.nbuf = len(runs)
	b.admit(len(runs), b.plainFn)
}

func (b *batchRec) issuePlain() {
	b.left = len(b.runs)
	if b.left == 0 {
		b.finish()
		return
	}
	for i, rn := range b.runs {
		lg := b.leg(i)
		lg.req = disk.Request{
			StartBlock: rn.start, Blocks: int(rn.blocks), TransferSectors: int(rn.sectors),
			Write: true, RMW: b.rmw != nil && b.rmw[i],
			Priority: b.w.pri, OnDone: b.legDoneFn,
		}
		b.submitLeg(i, b.c.disks[rn.disk], &lg.req)
	}
	if b.afterIssue != nil {
		b.afterIssue(b)
	}
}

// submitWriteFire issues a staggered device write: A = disk, B =
// request, C = the parent trace span (a nil *obs.Span when tracing is
// off). The span child is created at issue time, as for an immediate
// submit.
func submitWriteFire(e *sim.Engine, cl *sim.Call) {
	d := cl.A.(*disk.Disk)
	req := cl.B.(*disk.Request)
	if sp := cl.C.(*obs.Span); sp != nil {
		name := "write-data"
		if req.RMW {
			name = "rmw-data"
		}
		req.Span = sp.Child(name, e.Now())
		req.Span.SetBlocks(req.Blocks)
	}
	d.Submit(req)
}

// appendSpan appends the logical blocks [lba, lba+n) to dst.
func appendSpan(dst []int64, lba int64, n int) []int64 {
	for i := 0; i < n; i++ {
		dst = append(dst, lba+int64(i))
	}
	return dst
}
