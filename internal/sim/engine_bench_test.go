package sim

import (
	"fmt"
	"testing"
)

// BenchmarkEngine measures the scheduler hot path itself: steady-state
// schedule+step throughput while the pending queue holds a fixed number
// of events. Each iteration executes one event which schedules its
// replacement, so the heap stays at the given depth and every op pays
// one push and one pop (plus sift work logarithmic in depth).
//
// The depth sweep brackets real workloads: a lightly loaded single array
// sits in the tens of pending events, a saturated multi-array sweep in
// the thousands. The benchmark's sim.ns_per_event (bench/) is the
// end-to-end measure of this path.
func BenchmarkEngine(b *testing.B) {
	for _, depth := range []int{1, 16, 256, 4096} {
		b.Run(fmt.Sprintf("closure/depth=%d", depth), func(b *testing.B) {
			eng := New()
			n := 0
			var fn func()
			fn = func() {
				n++
				if n < b.N {
					eng.After(1000, fn)
				}
			}
			for i := 0; i < depth-1; i++ {
				eng.At(Time(1)<<40+Time(i), func() {})
			}
			b.ReportAllocs()
			b.ResetTimer()
			eng.After(1, fn)
			for n < b.N {
				if !eng.Step() {
					b.Fatal("engine drained early")
				}
			}
		})
	}
	for _, depth := range []int{1, 16, 256, 4096} {
		b.Run(fmt.Sprintf("call/depth=%d", depth), func(b *testing.B) {
			benchEngineCalls(b, depth)
		})
	}
}

// BenchmarkEngineScheduleDrain measures bulk scheduling followed by a
// full drain, the pattern open-loop trace replay produces.
func BenchmarkEngineScheduleDrain(b *testing.B) {
	const batch = 1024
	nop := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := New()
		for j := 0; j < batch; j++ {
			// Reverse order exercises sift-up on every push.
			eng.At(Time(batch-j), nop)
		}
		eng.Run()
	}
}
