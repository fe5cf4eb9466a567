// Package sim provides a deterministic discrete-event simulation engine.
//
// Time is measured in integer nanoseconds from the start of the simulation.
// Events scheduled for the same instant fire in the order they were
// scheduled (stable FIFO tie-break), which makes runs bit-reproducible for
// a given seed and input.
//
// The scheduler is built for the allocation-free hot path the trace
// replays need: the pending queue is a monomorphic 4-ary min-heap of
// event structs (no interface boxing, sift loops inlined), and callers
// on hot paths schedule through reusable Call payloads drawn from a
// per-engine free list instead of allocating a fresh closure per event.
package sim

import "fmt"

// Time is a simulation timestamp or duration in nanoseconds.
type Time = int64

// Common durations in nanoseconds.
const (
	Microsecond Time = 1000
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Millis renders a Time as fractional milliseconds, the unit the paper
// reports response times in.
func Millis(t Time) float64 { return float64(t) / float64(Millisecond) }

// FromMillis converts fractional milliseconds to a Time.
func FromMillis(ms float64) Time { return Time(ms * float64(Millisecond)) }

// Call is a reusable event payload: a callback plus argument slots,
// drawn from the engine's free list by AtCall/AfterCall and returned to
// it after the event fires. It replaces the per-event closure on hot
// paths — the caller parks its receiver and arguments in the slots and
// the callback unpacks them, so steady-state scheduling allocates
// nothing.
//
// A, B and C hold pointer-shaped values (pointers, funcs); storing one
// in the any slot does not allocate. N0..N2 hold scalars. A Call is
// valid for writing argument slots from AtCall/AfterCall until its
// event fires; once the callback returns, the engine recycles it — it
// must not be retained or rescheduled.
type Call struct {
	fn func(*Engine, *Call)

	A, B, C    any
	N0, N1, N2 int64

	next *Call // free-list link
}

// event is one pending heap entry. Exactly one of fn and call is set:
// fn for the closure form (At/After), call for the argument-carrying
// form (AtCall/AfterCall).
type event struct {
	at   Time
	seq  uint64
	fn   func()
	call *Call
}

// Engine is a single-threaded discrete-event scheduler. An Engine must not
// be shared between goroutines; independent arrays each get their own.
type Engine struct {
	now    Time
	seq    uint64
	events []event // 4-ary min-heap ordered by (at, seq)
	steps  uint64
	free   *Call // recycled Call payloads

	// Self-metric counters, maintained unconditionally (a compare and two
	// increments on paths that already cost hundreds of ns per event) and
	// read back through Meter. Pure observation: they schedule nothing
	// and consume no randomness, so results are bit-identical whether or
	// not anyone ever looks at them.
	heapHW     int    // high-water mark of the pending-event heap
	callHits   uint64 // Calls served from the free list
	callMisses uint64 // Calls that forced a fresh chunk allocation
}

// New returns an Engine with the clock at zero and no pending events.
func New() *Engine {
	return &Engine{}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Reset returns the engine to the observable state of a fresh New():
// clock at zero, sequence counter at zero, no pending events. The heap
// slab and the Call free list are kept — pending Call payloads are
// recycled into the free list — so a worker running many simulations
// back to back schedules without reallocating. The cumulative
// self-metric counters (steps, heap high-water, free-list hits) carry
// across the reset; per-simulation figures come from deltas (Steps
// before/after, or a Meter spanning the interval).
//
// Determinism: every scheduling decision an engine makes is a function
// of (now, seq, heap contents) — a reset engine replays any event
// sequence bit-identically to a fresh one, which is what lets core's
// per-run workers reuse engines across arrays without perturbing
// results.
func (e *Engine) Reset() {
	for i := range e.events {
		if c := e.events[i].call; c != nil {
			e.releaseCall(c)
		}
		e.events[i] = event{}
	}
	e.events = e.events[:0]
	e.now = 0
	e.seq = 0
}

// Steps returns the number of events executed so far.
func (e *Engine) Steps() uint64 { return e.steps }

// Pending returns the number of events not yet executed.
func (e *Engine) Pending() int { return len(e.events) }

// checkFuture panics on scheduling in the past: it would silently
// corrupt causality.
func (e *Engine) checkFuture(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
}

// At schedules fn to run at absolute time t. Scheduling in the past is a
// programming error and panics. The closure form is the convenient API
// for cold paths; hot paths use AtCall to avoid the closure allocation.
func (e *Engine) At(t Time, fn func()) {
	e.checkFuture(t)
	e.seq++
	e.push(event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn to run d nanoseconds from now. A non-positive delay
// schedules for the current instant (after already-queued events at now).
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	e.At(e.now+d, fn)
}

// AtCall schedules fn at absolute time t and returns the Call that will
// be passed to it, with every argument slot zeroed. The caller fills
// the slots it needs after scheduling (the engine reads them only when
// the event fires). The Call comes from the engine's free list and is
// recycled after fn returns.
func (e *Engine) AtCall(t Time, fn func(*Engine, *Call)) *Call {
	e.checkFuture(t)
	c := e.acquireCall()
	c.fn = fn
	e.seq++
	e.push(event{at: t, seq: e.seq, call: c})
	return c
}

// AfterCall is AtCall with a delay relative to now; negative delays
// clamp to the current instant, as in After.
func (e *Engine) AfterCall(d Time, fn func(*Engine, *Call)) *Call {
	if d < 0 {
		d = 0
	}
	return e.AtCall(e.now+d, fn)
}

// Cancel deactivates a pending Call-form event: when its heap entry pops
// the callback is skipped and the payload recycled exactly once, at pop
// time — never earlier, so the free list cannot hand the same Call to two
// live events. Cancel is valid only in the window between AtCall/AfterCall
// and the event firing; once the callback has run, the Call may already
// belong to a different event and cancelling it is a logic error the
// caller must rule out (single-threaded engines make that a local
// argument: track whether the event fired). The pointer slots are dropped
// immediately so a long-pending cancelled event does not pin its payload's
// referents.
func (e *Engine) Cancel(c *Call) {
	c.fn = nil
	c.A, c.B, c.C = nil, nil, nil
}

// Step executes the earliest pending event, advancing the clock to its
// timestamp. It reports whether an event was executed (a cancelled event
// still counts: the clock advanced to its timestamp).
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.pop()
	e.now = ev.at
	e.steps++
	if c := ev.call; c != nil {
		if c.fn != nil {
			c.fn(e, c)
		}
		e.releaseCall(c)
	} else {
		ev.fn()
	}
	return true
}

// Run executes events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock
// to exactly t. Events scheduled later remain pending.
func (e *Engine) RunUntil(t Time) {
	for len(e.events) > 0 && e.events[0].at <= t {
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// RunFor executes events for d nanoseconds of simulated time from now.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }

// --- event heap ---------------------------------------------------------
//
// A 4-ary min-heap ordered by (at, seq). seq is unique per event, so the
// order is strict and any correct heap pops the identical sequence —
// heap arity and sift details cannot perturb simulation results. 4-ary
// beats binary here: the sift-down depth drops by half, and the four
// children share a cache line's worth of 32-byte entries.

// before reports strict (at, seq) ordering. seq never repeats, so this
// is a total order.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts ev, sifting the hole up from the tail.
func (e *Engine) push(ev event) {
	h := append(e.events, ev)
	if len(h) > e.heapHW {
		e.heapHW = len(h)
	}
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if h[p].before(&ev) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	e.events = h
}

// pop removes and returns the minimum event.
func (e *Engine) pop() event {
	h := e.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release the vacated slot's pointers to the GC
	h = h[:n]
	e.events = h
	if n == 0 {
		return top
	}
	// Sift last down from the root: move the smallest child up into the
	// hole until last fits.
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if h[j].before(&h[m]) {
				m = j
			}
		}
		if !h[m].before(&last) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = last
	return top
}

// --- Call free list -----------------------------------------------------

// callChunk is how many Calls one free-list refill allocates. Chunked
// like the span arenas: one bulk allocation amortizes across many
// events, and recycled Calls make steady state allocation-free.
const callChunk = 64

func (e *Engine) acquireCall() *Call {
	c := e.free
	if c == nil {
		chunk := make([]Call, callChunk)
		for i := range chunk[:callChunk-1] {
			chunk[i].next = &chunk[i+1]
		}
		c = &chunk[0]
		e.callMisses++
	} else {
		e.callHits++
	}
	e.free = c.next
	c.next = nil
	return c
}

// releaseCall recycles a fired Call, dropping its pointer slots so the
// free list does not pin dead objects.
func (e *Engine) releaseCall(c *Call) {
	c.fn = nil
	c.A, c.B, c.C = nil, nil, nil
	c.N0, c.N1, c.N2 = 0, 0, 0
	c.next = e.free
	e.free = c
}
