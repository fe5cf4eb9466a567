package sim

import (
	"fmt"
	"runtime"
	"time"
)

// MeterStats is one metered interval of an engine's execution: how many
// events it processed, how long that took in host wall-clock time, how
// deep its pending-event heap grew, how well the Call free list recycled,
// and how much the process allocated while it ran. Everything here is
// observation of the host, never of the simulation: metering an engine
// schedules no events, consumes no randomness, and leaves every
// simulation output bit-identical.
type MeterStats struct {
	// Events is the number of engine events executed in the interval.
	Events uint64 `json:"events"`
	// WallNS is the host wall-clock nanoseconds the interval covered.
	WallNS int64 `json:"wall_ns"`
	// HeapHighWater is the deepest the pending-event heap grew in the
	// interval: StartMeter rebases the engine's mark to the heap's depth
	// at that moment, so an engine reused across simulations reports
	// each one's own peak, not an earlier run's.
	HeapHighWater int `json:"heap_high_water"`
	// CallHits counts AtCall/AfterCall payloads served from the free
	// list; CallMisses counts acquisitions that had to allocate a fresh
	// chunk. Hits/(Hits+Misses) is the steady-state recycling ratio.
	CallHits   uint64 `json:"call_hits"`
	CallMisses uint64 `json:"call_misses"`
	// AllocBytes and Mallocs are runtime.MemStats deltas (TotalAlloc,
	// Mallocs) across the interval. They are process-wide: with several
	// engines running concurrently each meter sees the sum of everyone's
	// allocation traffic, so treat per-engine values as an upper bound
	// and prefer the campaign-level aggregate.
	AllocBytes uint64 `json:"alloc_bytes"`
	Mallocs    uint64 `json:"mallocs"`
}

// EventsPerSec returns the metered execution rate, 0 for an empty or
// zero-length interval.
func (m MeterStats) EventsPerSec() float64 {
	if m.WallNS <= 0 {
		return 0
	}
	return float64(m.Events) / (float64(m.WallNS) / 1e9)
}

// CallHitRatio returns the free-list recycling ratio, 0 with no traffic.
func (m MeterStats) CallHitRatio() float64 {
	n := m.CallHits + m.CallMisses
	if n == 0 {
		return 0
	}
	return float64(m.CallHits) / float64(n)
}

// Add folds another metered interval into m: counters and wall time sum
// (summed wall across concurrent engines is engine-busy time, not
// elapsed time), the heap high-water takes the max.
func (m *MeterStats) Add(o MeterStats) {
	m.Events += o.Events
	m.WallNS += o.WallNS
	if o.HeapHighWater > m.HeapHighWater {
		m.HeapHighWater = o.HeapHighWater
	}
	m.CallHits += o.CallHits
	m.CallMisses += o.CallMisses
	m.AllocBytes += o.AllocBytes
	m.Mallocs += o.Mallocs
}

func (m MeterStats) String() string {
	return fmt.Sprintf("events=%d wall=%s ev/s=%.0f heap_hw=%d call=%d/%d alloc=%dB",
		m.Events, time.Duration(m.WallNS), m.EventsPerSec(),
		m.HeapHighWater, m.CallHits, m.CallMisses, m.AllocBytes)
}

// Meter is an armed measurement interval on one engine. StartMeter
// captures the baseline; Stop returns the deltas. The engine's hot-path
// counters (steps, heap high-water, free-list hits) are maintained
// whether or not a meter is armed — arming only snapshots them and
// rebases the high-water mark — so a metered run executes the same
// instructions as an unmetered one apart from the boundary reads. One
// meter at a time per engine: arming a second rebases the first's
// high-water mark too.
type Meter struct {
	eng       *Engine
	wall      time.Time
	steps     uint64
	hits      uint64
	misses    uint64
	alloc     uint64
	mallocs   uint64
	memStats  bool
	stopped   bool
	lastStats MeterStats
}

// StartMeter arms a meter on the engine. readMem additionally captures
// runtime.MemStats deltas (TotalAlloc/Mallocs); reading MemStats briefly
// stops the world, so callers metering thousands of short engines may
// prefer readMem=false.
func (e *Engine) StartMeter(readMem bool) *Meter {
	e.heapHW = len(e.events)
	m := &Meter{
		eng:      e,
		wall:     time.Now(),
		steps:    e.steps,
		hits:     e.callHits,
		misses:   e.callMisses,
		memStats: readMem,
	}
	if readMem {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		m.alloc, m.mallocs = ms.TotalAlloc, ms.Mallocs
	}
	return m
}

// Stop ends the interval and returns its stats. A second Stop returns
// the same stats (the interval ended at the first Stop).
func (m *Meter) Stop() MeterStats {
	if m.stopped {
		return m.lastStats
	}
	m.stopped = true
	s := MeterStats{
		Events:        m.eng.steps - m.steps,
		WallNS:        time.Since(m.wall).Nanoseconds(),
		HeapHighWater: m.eng.heapHW,
		CallHits:      m.eng.callHits - m.hits,
		CallMisses:    m.eng.callMisses - m.misses,
	}
	if m.memStats {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.AllocBytes = ms.TotalAlloc - m.alloc
		s.Mallocs = ms.Mallocs - m.mallocs
	}
	m.lastStats = s
	return s
}

// heapHighWater returns the deepest the pending-event heap has been
// since the engine was made or a meter was last armed on it.
func (e *Engine) heapHighWater() int { return e.heapHW }

// callFreeList returns the cumulative free-list hit and miss counts of
// the AtCall/AfterCall payload allocator.
func (e *Engine) callFreeList() (hits, misses uint64) {
	return e.callHits, e.callMisses
}
