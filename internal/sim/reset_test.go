package sim

import (
	"fmt"
	"testing"
)

// script runs a fixed event scenario — closure events, Call events, a
// cancellation, same-tick ties — and returns the firing order.
func script(e *Engine) []string {
	var got []string
	e.At(5, func() { got = append(got, fmt.Sprintf("a@%d", e.Now())) })
	c := e.AtCall(5, func(e *Engine, c *Call) {
		got = append(got, fmt.Sprintf("b%d@%d", c.N0, e.Now()))
		nc := e.AfterCall(3, func(e *Engine, c *Call) {
			got = append(got, fmt.Sprintf("c%d@%d", c.N0, e.Now()))
		})
		nc.N0 = c.N0 + 1
	})
	c.N0 = 7
	dead := e.AtCall(6, func(*Engine, *Call) { got = append(got, "dead") })
	e.Cancel(dead)
	e.Run()
	return got
}

// TestResetReplaysBitIdentically pins Reset's contract: a reset engine —
// even one abandoned mid-run with events still pending — replays any
// scenario exactly as a fresh one does, and scheduling after the reset
// reuses the recycled Call payloads instead of allocating new chunks.
func TestResetReplaysBitIdentically(t *testing.T) {
	want := script(New())

	e := New()
	// Dirty the engine: advance the clock, leave pending closure and
	// Call events behind, as the drain loop leaves an array's tickers.
	e.At(10, func() {})
	e.RunUntil(20)
	e.AfterCall(50, func(*Engine, *Call) {}).N0 = 99
	e.After(70, func() {})
	e.Reset()

	if e.Now() != 0 || e.Pending() != 0 {
		t.Fatalf("after Reset: now=%d pending=%d, want 0/0", e.Now(), e.Pending())
	}
	_, missesBefore := e.callFreeList()
	got := script(e)
	if _, misses := e.callFreeList(); misses != missesBefore {
		t.Errorf("scheduling after Reset allocated %d fresh chunks; the free list should have served them", misses-missesBefore)
	}
	if len(got) != len(want) {
		t.Fatalf("reset engine fired %d events, fresh fired %d\n got: %v\nwant: %v", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("firing %d: reset engine %q, fresh %q", i, got[i], want[i])
		}
	}
}

// TestResetKeepsCumulativeCounters: steps and the heap high-water carry
// across Reset (per-interval figures come from deltas), so a meter
// spanning several resets sees the union.
func TestResetKeepsCumulativeCounters(t *testing.T) {
	e := New()
	for i := 0; i < 8; i++ {
		e.At(Time(i), func() {})
	}
	e.Run()
	steps, hw := e.Steps(), e.heapHighWater()
	if steps != 8 || hw != 8 {
		t.Fatalf("pre-reset steps=%d hw=%d, want 8/8", steps, hw)
	}
	e.Reset()
	if e.Steps() != steps {
		t.Errorf("Reset changed steps: %d -> %d", steps, e.Steps())
	}
	if e.heapHighWater() != hw {
		t.Errorf("Reset changed heap high-water: %d -> %d", hw, e.heapHighWater())
	}
	e.At(0, func() {})
	e.Run()
	if e.Steps() != steps+1 {
		t.Errorf("steps after reset+1 event = %d, want %d", e.Steps(), steps+1)
	}
}
