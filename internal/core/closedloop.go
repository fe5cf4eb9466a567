package core

import (
	"context"
	"fmt"

	"raidsim/internal/array"
	"raidsim/internal/sim"
	"raidsim/internal/trace"
)

// ClosedLoopConfig parameterizes a closed-loop replay: the trace supplies
// the request *stream* but not its timing — each array keeps MPL requests
// outstanding, submitting the next record (after ThinkTime) whenever one
// completes. The paper notes that simply speeding a trace up "does not
// reflect the characteristics of any real system since transactions may
// have to wait for one I/O to finish before issuing another one";
// closed-loop replay is the complementary load model where that
// dependency is explicit, and throughput becomes the measured output.
type ClosedLoopConfig struct {
	MPL       int      // outstanding requests per array (multiprogramming level)
	ThinkTime sim.Time // delay between a completion and the next submission
}

// ClosedLoopResults extends Results with throughput.
type ClosedLoopResults struct {
	Results
	Makespan sim.Time // longest array's completion time
}

// Throughput returns completed requests per second of simulated time.
func (r *ClosedLoopResults) Throughput() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return float64(r.Requests) / (float64(r.Makespan) / float64(sim.Second))
}

// RunClosedLoop replays tr's request stream in closed-loop form against
// cfg. Arrival timestamps in the trace are ignored.
func RunClosedLoop(cfg Config, tr *trace.Trace, cl ClosedLoopConfig) (*ClosedLoopResults, error) {
	if cl.MPL < 1 {
		return nil, fmt.Errorf("core: MPL must be >= 1")
	}
	res, ends, err := execute(context.Background(), cfg, tr, cl.drive)
	if err != nil {
		return nil, err
	}
	out := &ClosedLoopResults{Results: *res}
	for _, end := range ends {
		if end > out.Makespan {
			out.Makespan = end
		}
	}
	return out, nil
}

// closedFeeder keeps one array's MPL requests outstanding: every
// completion submits the next record, directly or after the think time.
// Its completion callback is a method value bound once per array and
// think-time delays go through the engine's Call free list, so
// admission allocates nothing per request.
type closedFeeder struct {
	feeder
	eng      *sim.Engine
	think    sim.Time
	next     int // index of the next record to submit
	complete func()
}

// submitNext admits the next record, if any remain.
func (f *closedFeeder) submitNext() {
	if f.next >= f.sub.Len() {
		return
	}
	f.next++
	f.submit(f.next-1, f.complete)
}

// onComplete is the requests' completion callback. AfterCall takes one
// sequence number per wake-up, as After does; closedLoopGolden pins the
// resulting event order.
func (f *closedFeeder) onComplete() {
	if f.think > 0 {
		f.eng.AfterCall(f.think, thinkDone).A = f
	} else {
		f.submitNext()
	}
}

func thinkDone(_ *sim.Engine, c *sim.Call) { c.A.(*closedFeeder).submitNext() }

// drive is the closed-loop driveFunc. It returns the time the array
// finished its last request, which feeds Makespan.
func (cl ClosedLoopConfig) drive(eng *sim.Engine, ctrl array.Controller, sub *trace.Group) (sim.Time, error) {
	f := &closedFeeder{
		feeder: newFeeder(ctrl, sub),
		eng:    eng,
		think:  cl.ThinkTime,
	}
	f.complete = f.onComplete
	for i := 0; i < cl.MPL && i < sub.Len(); i++ {
		f.submitNext()
	}
	done := func() bool { return f.next >= sub.Len() && ctrl.Drained() }
	// Closed loops always make progress (every completion funds the next
	// submission); run until the stream is exhausted and drained, with a
	// generous step bound as a wedge detector.
	for i := 0; i < 1<<26 && !done(); i++ {
		if !eng.Step() {
			eng.RunFor(sim.Millisecond)
		}
	}
	if !done() {
		return 0, fmt.Errorf("core: closed-loop replay of %q wedged at record %d", sub.Name(), f.next)
	}
	return eng.Now(), nil
}
