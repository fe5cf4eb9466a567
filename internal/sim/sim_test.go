package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	eng := New()
	var got []int
	eng.At(30, func() { got = append(got, 3) })
	eng.At(10, func() { got = append(got, 1) })
	eng.At(20, func() { got = append(got, 2) })
	eng.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if eng.Now() != 30 {
		t.Fatalf("clock = %d, want 30", eng.Now())
	}
	if eng.Steps() != 3 {
		t.Fatalf("steps = %d, want 3", eng.Steps())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	eng := New()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		eng.At(42, func() { got = append(got, i) })
	}
	eng.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: position %d has %d", i, v)
		}
	}
}

func TestEnginePastPanics(t *testing.T) {
	eng := New()
	eng.At(100, func() {})
	eng.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past should panic")
		}
	}()
	eng.At(50, func() {})
}

func TestEngineAfterNegativeClamps(t *testing.T) {
	eng := New()
	eng.At(10, func() {
		eng.After(-5, func() {
			if eng.Now() != 10 {
				t.Errorf("negative After ran at %d, want 10", eng.Now())
			}
		})
	})
	eng.Run()
}

func TestRunUntil(t *testing.T) {
	eng := New()
	var fired []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		eng.At(at, func() { fired = append(fired, at) })
	}
	eng.RunUntil(12)
	if len(fired) != 2 {
		t.Fatalf("RunUntil(12) fired %v", fired)
	}
	if eng.Now() != 12 {
		t.Fatalf("clock = %d, want 12", eng.Now())
	}
	eng.RunFor(8)
	if len(fired) != 4 || eng.Now() != 20 {
		t.Fatalf("RunFor(8): fired %v now %d", fired, eng.Now())
	}
}

// TestEngineCascade: events scheduling events preserve causality.
func TestEngineCascade(t *testing.T) {
	eng := New()
	depth := 0
	var step func()
	step = func() {
		depth++
		if depth < 1000 {
			eng.After(1, step)
		}
	}
	eng.After(1, step)
	eng.Run()
	if depth != 1000 {
		t.Fatalf("cascade depth %d, want 1000", depth)
	}
	if eng.Now() != 1000 {
		t.Fatalf("clock %d, want 1000", eng.Now())
	}
}

// TestQuickEngineSorted: whatever order events are scheduled in, they
// execute in non-decreasing time order.
func TestQuickEngineSorted(t *testing.T) {
	f := func(times []uint16) bool {
		eng := New()
		var got []Time
		for _, at := range times {
			at := Time(at)
			eng.At(at, func() { got = append(got, at) })
		}
		eng.Run()
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				return false
			}
		}
		return len(got) == len(times)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTicker(t *testing.T) {
	eng := New()
	count := 0
	tk := NewTicker(eng, 10, func() {
		count++
		if count == 5 {
			// Stop from within the callback.
		}
	})
	eng.RunUntil(55)
	if count != 5 {
		t.Fatalf("ticker fired %d times by t=55, want 5", count)
	}
	tk.stop()
	eng.RunUntil(200)
	if count != 5 {
		t.Fatalf("ticker fired after Stop: %d", count)
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	eng := New()
	count := 0
	var tk *Ticker
	tk = NewTicker(eng, 10, func() {
		count++
		if count == 3 {
			tk.stop()
		}
	})
	eng.RunUntil(1000)
	if count != 3 {
		t.Fatalf("ticker fired %d times, want 3", count)
	}
}

func TestTickerBadPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero period should panic")
		}
	}()
	NewTicker(New(), 0, func() {})
}

func TestMillisConversions(t *testing.T) {
	if Millis(1500000) != 1.5 {
		t.Fatalf("Millis(1.5ms in ns) = %f", Millis(1500000))
	}
	if FromMillis(2.5) != 2500000 {
		t.Fatalf("FromMillis(2.5) = %d", FromMillis(2.5))
	}
	if Second != 1000*Millisecond || Millisecond != 1000*Microsecond {
		t.Fatal("unit constants inconsistent")
	}
}

// TestSameInstantFIFO interleaves scheduling and stepping so the heap is
// repeatedly torn down and rebuilt while many events share one timestamp.
// The (at, seq) tie-break must keep same-instant events in schedule order
// regardless of how the heap array was permuted by earlier pops.
func TestSameInstantFIFO(t *testing.T) {
	e := New()
	var got []int
	id := 0
	schedule := func(at Time, n int) {
		for i := 0; i < n; i++ {
			id++
			k := id
			if k%2 == 0 { // exercise both scheduling forms
				c := e.AtCall(at, func(_ *Engine, c *Call) {
					got = append(got, int(c.N0))
				})
				c.N0 = int64(k)
			} else {
				e.At(at, func() { got = append(got, k) })
			}
		}
	}
	// Batch at t=100 plus decoys at later times, then pop a few, then
	// schedule more at t=100 — pops in between permute the backing array.
	schedule(100, 7)
	schedule(300, 3)
	for i := 0; i < 3; i++ {
		e.Step()
	}
	schedule(100, 6)
	schedule(200, 2)
	e.Run()
	want := []int{1, 2, 3, 4, 5, 6, 7, 11, 12, 13, 14, 15, 16, 17, 18, 8, 9, 10}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order %v, want %v", got, want)
		}
	}
}

// TestRunUntilAdvancesEmptyClock: RunUntil must move the clock to t even
// when no events are pending, and must never move it backwards.
func TestRunUntilAdvancesEmptyClock(t *testing.T) {
	e := New()
	e.RunUntil(500)
	if e.Now() != 500 {
		t.Fatalf("Now = %d after RunUntil(500) on empty queue, want 500", e.Now())
	}
	e.RunUntil(200) // in the past: no-op, not a rewind
	if e.Now() != 500 {
		t.Fatalf("Now = %d after RunUntil(200), want 500 (no rewind)", e.Now())
	}
	e.RunFor(250)
	if e.Now() != 750 {
		t.Fatalf("Now = %d after RunFor(250), want 750", e.Now())
	}
	if e.Steps() != 0 {
		t.Fatalf("Steps = %d, want 0 (clock moved without events)", e.Steps())
	}
}

// TestNegativeDelayClamps: After/AfterCall with a negative delay fire at
// the current instant, after events already queued for now.
func TestNegativeDelayClamps(t *testing.T) {
	e := New()
	e.RunUntil(1000)
	var got []string
	e.At(1000, func() { got = append(got, "queued") })
	e.After(-50, func() {
		got = append(got, "after")
		if e.Now() != 1000 {
			t.Errorf("negative After fired at %d, want 1000", e.Now())
		}
	})
	e.AfterCall(-1, func(e *Engine, _ *Call) {
		got = append(got, "afterCall")
		if e.Now() != 1000 {
			t.Errorf("negative AfterCall fired at %d, want 1000", e.Now())
		}
	})
	e.Run()
	if len(got) != 3 || got[0] != "queued" || got[1] != "after" || got[2] != "afterCall" {
		t.Fatalf("fire order %v, want [queued after afterCall]", got)
	}
}

// TestSchedulePastPanics: At/AtCall before now is a causality bug and
// must panic rather than silently corrupt the run.
func TestSchedulePastPanics(t *testing.T) {
	e := New()
	e.RunUntil(100)
	for _, f := range []func(){
		func() { e.At(99, func() {}) },
		func() { e.AtCall(99, func(*Engine, *Call) {}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("scheduling in the past did not panic")
				}
			}()
			f()
		}()
	}
}

// TestCallSlotsAndRecycling: argument slots written after AtCall reach
// the callback; fired Calls return to the free list zeroed and are
// reused by later schedules.
func TestCallSlotsAndRecycling(t *testing.T) {
	e := New()
	type payload struct{ v int }
	p := &payload{v: 7}
	var fired *Call
	c1 := e.AtCall(10, func(e *Engine, c *Call) {
		fired = c
		if e.Now() != 10 {
			t.Errorf("fired at %d, want 10", e.Now())
		}
		if c.A.(*payload) != p || c.B.(string) != "b" {
			t.Errorf("pointer slots not delivered: A=%v B=%v", c.A, c.B)
		}
		if c.N0 != 42 || c.N1 != -5 || c.N2 != 0 {
			t.Errorf("scalar slots not delivered: %d %d %d", c.N0, c.N1, c.N2)
		}
	})
	c1.A, c1.B = p, "b"
	c1.N0, c1.N1 = 42, -5
	e.Run()
	if fired != c1 {
		t.Fatal("callback did not receive the Call returned by AtCall")
	}
	// The fired Call is recycled: the next acquire hands back the same
	// cell with every slot zeroed.
	c2 := e.AfterCall(1, func(*Engine, *Call) {})
	if c2 != c1 {
		t.Fatal("fired Call was not recycled through the free list")
	}
	if c2.A != nil || c2.B != nil || c2.C != nil || c2.N0 != 0 || c2.N1 != 0 || c2.N2 != 0 {
		t.Fatalf("recycled Call not zeroed: %+v", c2)
	}
	e.Run()
}
