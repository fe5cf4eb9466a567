package sim

import "testing"

// TestMeterCountsEventsAndHeap drives a known event pattern and checks
// the meter's counters match it exactly.
func TestMeterCountsEventsAndHeap(t *testing.T) {
	e := New()
	m := e.StartMeter(true)
	// Schedule 32 events up front: the heap must reach depth 32.
	fired := 0
	for i := 0; i < 32; i++ {
		e.At(Time(i)*Millisecond, func() { fired++ })
	}
	e.Run()
	s := m.Stop()
	if fired != 32 {
		t.Fatalf("fired %d events, want 32", fired)
	}
	if s.Events != 32 {
		t.Errorf("meter saw %d events, want 32", s.Events)
	}
	if s.HeapHighWater != 32 {
		t.Errorf("heap high-water %d, want 32", s.HeapHighWater)
	}
	if s.WallNS <= 0 {
		t.Errorf("non-positive wall time %d", s.WallNS)
	}
	if s.EventsPerSec() <= 0 {
		t.Errorf("non-positive events/sec")
	}
	// A second Stop returns the same interval.
	if again := m.Stop(); again != s {
		t.Errorf("second Stop returned %+v, want %+v", again, s)
	}
}

// TestMeterCallFreeList checks hit/miss accounting: the first acquisition
// allocates a chunk (miss), recycled Calls are hits.
func TestMeterCallFreeList(t *testing.T) {
	e := New()
	m := e.StartMeter(false)
	n := 0
	var tick func(*Engine, *Call)
	tick = func(e *Engine, _ *Call) {
		n++
		if n < 200 {
			e.AfterCall(Millisecond, tick)
		}
	}
	e.AfterCall(Millisecond, tick)
	e.Run()
	s := m.Stop()
	if n != 200 {
		t.Fatalf("ran %d ticks, want 200", n)
	}
	// One event in flight at a time: a single chunk covers the whole run.
	if s.CallMisses != 1 {
		t.Errorf("call misses %d, want 1 (one chunk)", s.CallMisses)
	}
	if s.CallHits != 199 {
		t.Errorf("call hits %d, want 199", s.CallHits)
	}
	if r := s.CallHitRatio(); r < 0.99 {
		t.Errorf("hit ratio %.3f, want >= 0.99", r)
	}
}

// TestMeterIntervalDeltas checks that a meter armed mid-run sees only its
// own interval, the heap high-water included.
func TestMeterIntervalDeltas(t *testing.T) {
	e := New()
	for i := 0; i < 10; i++ {
		e.At(Time(i), func() {})
	}
	e.Run() // 10 events before the meter arms; heap reached 10
	m := e.StartMeter(false)
	for i := 0; i < 5; i++ {
		e.At(e.Now()+Time(i+1), func() {})
	}
	e.Run()
	s := m.Stop()
	if s.Events != 5 {
		t.Errorf("metered interval saw %d events, want 5", s.Events)
	}
	if s.HeapHighWater != 5 {
		t.Errorf("heap high-water %d, want the interval's own 5", s.HeapHighWater)
	}
}

// TestMeterOnReusedEngine: a meter on an engine Reset after a deeper run
// reports the shallow run's own high-water, counted from the depth the
// heap had when the meter was armed.
func TestMeterOnReusedEngine(t *testing.T) {
	e := New()
	for i := 0; i < 40; i++ {
		e.At(Time(i), func() {})
	}
	e.Run()
	e.Reset()
	e.At(100, func() {}) // pending when the meter arms
	m := e.StartMeter(false)
	for i := 0; i < 3; i++ {
		e.At(Time(i), func() {})
	}
	e.Run()
	if s := m.Stop(); s.HeapHighWater != 4 {
		t.Errorf("reused engine: heap high-water %d, want the shallow run's 4", s.HeapHighWater)
	}
}

// TestMeterStatsAdd checks the aggregate semantics: sums everywhere, max
// for the heap high-water.
func TestMeterStatsAdd(t *testing.T) {
	a := MeterStats{Events: 10, WallNS: 100, HeapHighWater: 3, CallHits: 5, CallMisses: 1, AllocBytes: 64, Mallocs: 2}
	b := MeterStats{Events: 20, WallNS: 50, HeapHighWater: 7, CallHits: 2, CallMisses: 2, AllocBytes: 32, Mallocs: 1}
	a.Add(b)
	want := MeterStats{Events: 30, WallNS: 150, HeapHighWater: 7, CallHits: 7, CallMisses: 3, AllocBytes: 96, Mallocs: 3}
	if a != want {
		t.Errorf("Add: got %+v, want %+v", a, want)
	}
}
