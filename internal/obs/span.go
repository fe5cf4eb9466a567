package obs

import (
	"sort"

	"raidsim/internal/sim"
)

// Span names emitted by the disk layer for the mechanism phases of one
// device access. The array layer names the device-op spans themselves
// ("rmw-data", "rmw-parity", ...), so "read-old" under "rmw-parity" is
// the read-old-parity leg of a small-write parity update.
const (
	SpanQueue      = "queue"         // waiting in the drive's queue for the mechanism
	SpanSeekRotate = "seek+rotate"   // arm seek + rotational positioning
	SpanTransfer   = "transfer"      // media pass (plain read or write)
	SpanReadOld    = "read-old"      // RMW phase 1: old-data read pass
	SpanRealign    = "realign"       // RMW: rotation back to the start of the run
	SpanHold       = "hold-rotation" // RMW: a full rotation held waiting for inputs
	SpanWriteNew   = "write-new"     // RMW phase 2: new-data write pass
)

// Span names emitted by the controller envelope above the schemes.
const (
	SpanAdmit   = "admit"       // waiting for track buffers
	SpanChannel = "channel"     // array channel transfer
	SpanStall   = "cache-stall" // write held for NV-cache space
)

// Span is one node of a request's trace tree: a named interval, optionally
// tagged with the drive it ran on and the blocks it moved. A nil *Span is
// the off switch — every method nil-checks its receiver — so instrumented
// paths pass spans around unconditionally and pay one branch when tracing
// is disabled.
type Span struct {
	Name   string
	Start  sim.Time
	End    sim.Time // spanOpen until closed
	Disk   int      // -1 when not a device access
	Blocks int      // 0 when not applicable

	idx    int32 // position in the tree's span slice
	parent int32 // parent index; -1 for the root
	t      *SpanTree
}

// spanOpen marks a span that has not been closed yet.
const spanOpen = sim.Time(-1)

// Duration returns End-Start (0 while the span is open).
func (s *Span) Duration() sim.Time {
	if s.End == spanOpen {
		return 0
	}
	return s.End - s.Start
}

// Child starts a sub-span at the given time and returns it (nil receiver
// or closed-over nil tree returns nil).
func (s *Span) Child(name string, at sim.Time) *Span {
	if s == nil {
		return nil
	}
	t := s.t
	c := t.newSpan()
	*c = Span{Name: name, Start: at, End: spanOpen, Disk: -1,
		idx: int32(t.n - 1), parent: s.idx, t: t}
	return c
}

// ChildSpan records an already-finished sub-span.
func (s *Span) ChildSpan(name string, from, to sim.Time) *Span {
	c := s.Child(name, from)
	c.CloseAt(to)
	return c
}

// CloseAt ends the span (idempotent; a later close wins, which lets a
// retried device access extend its op span).
func (s *Span) CloseAt(at sim.Time) {
	if s == nil {
		return
	}
	s.End = at
}

// SetDisk tags the span with the drive it ran on.
func (s *Span) SetDisk(d int) {
	if s == nil {
		return
	}
	s.Disk = d
}

// SetBlocks tags the span with the block count it covers.
func (s *Span) SetBlocks(n int) {
	if s == nil {
		return
	}
	s.Blocks = n
}

// spanChunkLen is the arena granularity: spans are allocated (and
// recycled) in fixed-size chunks, so steady-state tracing touches the
// allocator once per spanChunkLen spans and the garbage collector sees a
// handful of chunk objects per tree instead of one object and one slice
// slot per span. Chunk addresses are stable, so *Span handles stay valid
// as the tree grows.
const spanChunkLen = 32

type spanChunk [spanChunkLen]Span

// SpanTree is one request's (or one background activity's) complete span
// tree, stored as a chunked flat arena with parent indices; span 0 is the
// root.
type SpanTree struct {
	Class      string // request class, or the background root's name
	Write      bool
	Degraded   bool
	Background bool

	n      int // spans in use across chunks
	chunks []*spanChunk
	tr     *Tracer
}

// at returns span i of the arena.
func (t *SpanTree) at(i int32) *Span {
	return &t.chunks[int(i)/spanChunkLen][int(i)%spanChunkLen]
}

// newSpan hands out the next arena slot, growing by one chunk when full.
func (t *SpanTree) newSpan() *Span {
	ci := t.n / spanChunkLen
	if ci == len(t.chunks) {
		t.chunks = append(t.chunks, t.tr.chunk())
	}
	s := &t.chunks[ci][t.n%spanChunkLen]
	t.n++
	return s
}

// Root returns the tree's root span.
func (t *SpanTree) Root() *Span { return t.at(0) }

// Spans returns the spans as a flat slice in creation order, so a parent
// precedes its children. The slice is built on demand — intended for
// export, not the simulation hot path.
func (t *SpanTree) Spans() []*Span {
	out := make([]*Span, t.n)
	for i := range out {
		out[i] = t.at(int32(i))
	}
	return out
}

// Duration returns the root span's duration.
func (t *SpanTree) Duration() sim.Time { return t.Root().Duration() }

// StageMS sums the durations of all spans with the given name, in
// milliseconds — the per-stage decomposition the tail-anatomy table
// renders. Device-op legs may overlap in time, so stage sums can exceed
// the root duration.
func (t *SpanTree) StageMS(name string) float64 {
	var sum sim.Time
	for i := 0; i < t.n; i++ {
		if s := t.at(int32(i)); s.Name == name {
			sum += s.Duration()
		}
	}
	return sim.Millis(sum)
}

// DeviceOps counts the spans tagged with a drive (the device accesses the
// request fanned out to).
func (t *SpanTree) DeviceOps() int {
	n := 0
	for i := 0; i < t.n; i++ {
		if t.at(int32(i)).Disk >= 0 {
			n++
		}
	}
	return n
}

// Request classes for tail sampling: direction × degraded mode.
const (
	ClassReadNormal    = "read/normal"
	ClassReadDegraded  = "read/degraded"
	ClassWriteNormal   = "write/normal"
	ClassWriteDegraded = "write/degraded"
)

// SpanClasses lists the request classes in render order.
func SpanClasses() []string {
	return []string{ClassReadNormal, ClassReadDegraded, ClassWriteNormal, ClassWriteDegraded}
}

func classIndex(write, degraded bool) int {
	i := 0
	if write {
		i = 2
	}
	if degraded {
		i++
	}
	return i
}

func className(write, degraded bool) string {
	return SpanClasses()[classIndex(write, degraded)]
}

// tkEntry is one retained tree in a class's top-K min-heap, keyed on the
// root span's duration so the slowest K survive.
type tkEntry struct {
	dur sim.Time
	t   *SpanTree
}

type topkHeap struct{ e []tkEntry }

func (h *topkHeap) push(dur sim.Time, t *SpanTree) {
	h.e = append(h.e, tkEntry{dur, t})
	i := len(h.e) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.e[p].dur <= h.e[i].dur {
			break
		}
		h.e[p], h.e[i] = h.e[i], h.e[p]
		i = p
	}
}

// replaceMin swaps the fastest retained tree for a slower newcomer and
// returns the evictee.
func (h *topkHeap) replaceMin(dur sim.Time, t *SpanTree) *SpanTree {
	old := h.e[0].t
	h.e[0] = tkEntry{dur, t}
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.e) && h.e[l].dur < h.e[small].dur {
			small = l
		}
		if r < len(h.e) && h.e[r].dur < h.e[small].dur {
			small = r
		}
		if small == i {
			return old
		}
		h.e[i], h.e[small] = h.e[small], h.e[i]
		i = small
	}
}

// DefaultSpanBgCap bounds the background span trees (destage batches,
// rebuild chunks, parity spool accesses) a Recorder's tracer retains.
const DefaultSpanBgCap = 512

// Tracer builds per-request span trees and retains the slowest K per
// class (read/write × normal/degraded) plus a bounded ring of background
// trees. Like the Recorder it is single-goroutine and nil-safe: a nil
// *Tracer returns nil roots, and nil spans swallow every call, so the
// instrumented pipeline is one predictable branch per probe when tracing
// is off. Rejected and evicted trees recycle their arena chunks through a
// freelist, keeping steady-state tracing allocation-free.
type Tracer struct {
	topK    int
	classes [4]topkHeap

	bg        []*SpanTree
	bgNext    int
	bgCap     int
	bgDropped int64

	freeChunks []*spanChunk
	freeTrees  []*SpanTree
}

// NewTracer returns a tracer retaining the slowest topK request trees per
// class and up to bgCap background trees (<= 0 means DefaultSpanBgCap).
func NewTracer(topK, bgCap int) *Tracer {
	if bgCap <= 0 {
		bgCap = DefaultSpanBgCap
	}
	return &Tracer{topK: topK, bgCap: bgCap}
}

func (tr *Tracer) chunk() *spanChunk {
	if n := len(tr.freeChunks); n > 0 {
		c := tr.freeChunks[n-1]
		tr.freeChunks = tr.freeChunks[:n-1]
		return c
	}
	return new(spanChunk)
}

func (tr *Tracer) tree() *SpanTree {
	if n := len(tr.freeTrees); n > 0 {
		t := tr.freeTrees[n-1]
		tr.freeTrees = tr.freeTrees[:n-1]
		t.Class, t.Write, t.Degraded, t.Background = "", false, false, false
		return t
	}
	return &SpanTree{tr: tr}
}

func (tr *Tracer) recycle(t *SpanTree) {
	tr.freeChunks = append(tr.freeChunks, t.chunks...)
	t.chunks = t.chunks[:0]
	t.n = 0
	tr.freeTrees = append(tr.freeTrees, t)
}

// Start opens a request's root span. Returns nil on a nil tracer.
func (tr *Tracer) Start(at sim.Time, write bool) *Span {
	if tr == nil {
		return nil
	}
	t := tr.tree()
	t.Write = write
	name := "read"
	if write {
		name = "write"
	}
	s := t.newSpan()
	*s = Span{Name: name, Start: at, End: spanOpen, Disk: -1, idx: 0, parent: -1, t: t}
	return s
}

// StartBackground opens the root span of a background activity (destage
// batch, rebuild sweep, parity spool access).
func (tr *Tracer) StartBackground(name string, at sim.Time) *Span {
	if tr == nil {
		return nil
	}
	t := tr.tree()
	t.Background = true
	t.Class = name
	s := t.newSpan()
	*s = Span{Name: name, Start: at, End: spanOpen, Disk: -1, idx: 0, parent: -1, t: t}
	return s
}

// closeStragglers closes spans a dropped device access may have left open.
func closeStragglers(t *SpanTree, at sim.Time) {
	for i := 0; i < t.n; i++ {
		if s := t.at(int32(i)); s.End == spanOpen {
			s.End = at
		}
	}
}

// Finish closes a request's root span, classifies the tree, and offers it
// to the class's top-K heap; trees that don't make the cut are recycled.
func (tr *Tracer) Finish(root *Span, at sim.Time, degraded bool) {
	if tr == nil || root == nil {
		return
	}
	t := root.t
	root.End = at
	closeStragglers(t, at)
	t.Degraded = degraded
	t.Class = className(t.Write, degraded)
	dur := root.Duration()
	h := &tr.classes[classIndex(t.Write, degraded)]
	switch {
	case tr.topK <= 0:
		tr.recycle(t)
	case len(h.e) < tr.topK:
		h.push(dur, t)
	case dur > h.e[0].dur:
		tr.recycle(h.replaceMin(dur, t))
	default:
		tr.recycle(t)
	}
}

// FinishBackground closes a background tree and retains it in the bounded
// ring (newest win; overwrites count as dropped).
func (tr *Tracer) FinishBackground(root *Span, at sim.Time) {
	if tr == nil || root == nil {
		return
	}
	t := root.t
	root.End = at
	closeStragglers(t, at)
	if len(tr.bg) < tr.bgCap {
		tr.bg = append(tr.bg, t)
		return
	}
	tr.bgDropped++
	tr.recycle(tr.bg[tr.bgNext])
	tr.bg[tr.bgNext] = t
	tr.bgNext = (tr.bgNext + 1) % len(tr.bg)
}

// Requests returns the retained request trees, slowest first.
func (tr *Tracer) Requests() []*SpanTree {
	if tr == nil {
		return nil
	}
	var out []*SpanTree
	for i := range tr.classes {
		for _, e := range tr.classes[i].e {
			out = append(out, e.t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Duration() > out[j].Duration() })
	return out
}

// Background returns the retained background trees in start order.
func (tr *Tracer) Background() []*SpanTree {
	if tr == nil {
		return nil
	}
	out := append([]*SpanTree(nil), tr.bg...)
	sort.Slice(out, func(i, j int) bool { return out[i].Root().Start < out[j].Root().Start })
	return out
}

// BackgroundDropped counts background trees the bounded ring overwrote.
func (tr *Tracer) BackgroundDropped() int64 {
	if tr == nil {
		return 0
	}
	return tr.bgDropped
}

// SpanSample is one retained span tree annotated with the array that
// produced it, the unit core.Results carries and the exporters consume.
type SpanSample struct {
	Array int
	Tree  *SpanTree
}
