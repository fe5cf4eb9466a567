package core

import (
	"context"
	"fmt"
	"sync"

	"raidsim/internal/array"
	"raidsim/internal/campaign/shard"
	"raidsim/internal/obs"
	"raidsim/internal/sim"
	"raidsim/internal/trace"
)

// driveFunc replays one array's group of the trace against its
// controller on eng until the array has finished, and returns the
// simulated time it ended at. Open-loop replay (replayOpen) and
// closed-loop replay (ClosedLoopConfig.drive) are the two kinds.
type driveFunc func(eng *sim.Engine, ctrl array.Controller, sub *trace.Group) (sim.Time, error)

// execute is the one way core simulates a system. It validates cfg
// against tr, partitions the trace into per-array group views
// (trace.Groups: an index of record positions, no copy of the records),
// and runs the arrays on shard.MapStats with min(Workers, arrays)
// workers. Each worker takes one engine from idleEngines the first time
// it claims an array and keeps it for the whole run: it builds array g's
// controller on that engine, lets drive replay the group, releases the
// controller after taking its Results, and Resets the engine before its
// next array. The engines go back to idleEngines when the run ends.
// Every output lands in a slot addressed by g and is folded in index
// order afterwards, so results are bit-identical at any worker count:
// arrays share nothing but the workload, which they only read, every
// per-array seed is a pure function of (cfg.Seed, g), and a reset engine
// replays any event sequence exactly like a fresh one. The second result
// holds each array's end time.
func execute(ctx context.Context, cfg Config, tr *trace.Trace, drive driveFunc) (*Results, []sim.Time, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("core: run canceled before start: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if tr.NumDisks != cfg.DataDisks {
		return nil, nil, fmt.Errorf("core: trace has %d disks, config expects %d", tr.NumDisks, cfg.DataDisks)
	}
	if tr.BlocksPerDisk != cfg.Spec.BlocksPerDisk() {
		return nil, nil, fmt.Errorf("core: trace has %d blocks/disk, disk model has %d", tr.BlocksPerDisk, cfg.Spec.BlocksPerDisk())
	}
	groups, err := tr.Groups(cfg.N)
	if err != nil {
		return nil, nil, err
	}
	widths := cfg.groupDisks(len(groups))
	faults, err := cfg.groupFaults(widths)
	if err != nil {
		return nil, nil, err
	}

	n := len(groups)
	parts := make([]*array.Results, n)
	events := make([]uint64, n)
	ends := make([]sim.Time, n)
	meters := make([]sim.MeterStats, n)
	recs := make([]*obs.Recorder, n)
	errs := make([]error, n)
	runArray := func(eng *sim.Engine, g int) {
		if err := ctx.Err(); err != nil {
			errs[g] = fmt.Errorf("core: array %d canceled: %w", g, err)
			return
		}
		ac := cfg.arrayConfig(g, widths[g], faults[g], tr.Classes)
		recs[g] = ac.Rec
		var m *sim.Meter
		if cfg.SelfMetrics {
			m = eng.StartMeter(true)
		}
		steps0 := eng.Steps()
		ctrl, err := array.New(eng, ac)
		if err == nil {
			ends[g], err = drive(eng, ctrl, &groups[g])
		}
		if err != nil {
			errs[g] = err
			return
		}
		parts[g], events[g] = ctrl.Results(), eng.Steps()-steps0
		ctrl.Release()
		if m != nil {
			meters[g] = m.Stop()
		}
	}

	engines := make([]*sim.Engine, shard.Workers(cfg.Workers, n))
	shard.MapStats(cfg.Workers, n, func(w, g int) {
		if engines[w] == nil {
			engines[w] = idleEngines.Get().(*sim.Engine)
		}
		runArray(engines[w], g)
		engines[w].Reset()
	})
	for _, eng := range engines {
		if eng != nil {
			idleEngines.Put(eng)
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	out := merge(cfg, parts, events)
	for _, m := range meters {
		out.Engine.Add(m)
	}
	attachObs(out, recs)
	return out, ends, nil
}

// idleEngines holds reset worker engines between runs. Each keeps its
// heap slab and Call free list, so a campaign of short runs schedules on
// warm engines instead of growing new ones run after run; the garbage
// collector empties the pool.
var idleEngines = sync.Pool{New: func() any { return sim.New() }}

// drainGrace bounds how long past the last arrival an array may take to
// finish in-flight work before the run is declared wedged. Generous: a
// severely overloaded trace-speed-2 run needs time to empty its queues.
const drainGrace = 3600 * sim.Second

// feedWindow is how many records a feeder copies out of the parent
// trace at a time. Reading one record at a time through the group's
// index puts a dependent cache miss inside the event loop; a batched
// Group.Fill lets those misses overlap. 256 records are 8 KB per feeder.
const feedWindow = 256

// feeder submits one array's trace records to its controller. The open
// loop chains its records through feedStep; the closed loop's
// closedFeeder embeds it. Both read the group's records in order, so
// the window only ever moves forward: it holds records [lo, hi) and
// refills from the cursor once the cursor passes hi. Feeders come from
// idleFeeders and go back to it when their array's replay ends.
type feeder struct {
	ctrl   array.Controller
	sub    *trace.Group
	cap64  int64
	lo, hi int
	win    [feedWindow]trace.Record
}

// idleFeeders holds feeders between replays, windows and all.
var idleFeeders = sync.Pool{New: func() any { return new(feeder) }}

// newFeeder takes a feeder for sub's records. An empty window (hi = 0)
// makes the first record refill it, so a recycled window's stale
// records are never read.
func newFeeder(ctrl array.Controller, sub *trace.Group) *feeder {
	f := idleFeeders.Get().(*feeder)
	f.ctrl, f.sub, f.cap64 = ctrl, sub, ctrl.DataBlocks()
	f.lo, f.hi = 0, 0
	return f
}

// release hands f back to idleFeeders. An admission event still pending
// on the engine may name f, but the engine is Reset before it runs again.
func (f *feeder) release() {
	f.ctrl, f.sub = nil, nil
	idleFeeders.Put(f)
}

// record returns the group's record idx; idx never falls below lo.
func (f *feeder) record(idx int) *trace.Record {
	if idx >= f.hi {
		f.lo = idx
		f.hi = idx + f.sub.Fill(f.win[:], idx)
	}
	return &f.win[idx-f.lo]
}

// submit admits record idx, clipped to the array's data capacity.
func (f *feeder) submit(idx int, onComplete func()) {
	r := f.record(idx)
	lba := r.LBA
	blocks := r.Blocks
	if lba >= f.cap64 {
		// Striping/area division can shave a sliver of capacity off
		// the logical space; wrap the handful of affected addresses.
		lba %= f.cap64
	}
	if rem := f.cap64 - lba; int64(blocks) > rem {
		blocks = int(rem)
	}
	f.ctrl.Submit(array.Request{
		Op: r.Op, LBA: lba, Blocks: blocks,
		Class:      reqSLO(f.sub.Classes(), r.Class, blocks),
		CClass:     r.Class,
		OnComplete: onComplete,
	})
}

// feedStep admits open-loop record c.N0 and schedules the next one.
// Each record is admitted by its own Call-form event whose callback
// schedules the next record's event, so admission runs entirely through
// the engine's Call free list: no allocation per record, and on a
// reused worker engine the chain recycles the previous array's payloads.
// Same-tick records stay distinct events — the (at, seq) order pins
// their FIFO admission, and the golden fingerprints pin the per-run
// event counts — they just share the one free-list slot that hands off
// from record to record.
func feedStep(e *sim.Engine, c *sim.Call) {
	f := c.A.(*feeder)
	idx := int(c.N0)
	f.submit(idx, nil)
	if next := idx + 1; next < f.sub.Len() {
		nc := e.AtCall(f.record(next).At, feedStep)
		nc.A = f
		nc.N0 = int64(next)
	}
}

// replayOpen is the open-loop driveFunc: records arrive at their trace
// timestamps, then the array gets drainGrace to finish in-flight work
// and any hot-spare rebuild.
func replayOpen(eng *sim.Engine, ctrl array.Controller, sub *trace.Group) (sim.Time, error) {
	if sub.Len() > 0 {
		f := newFeeder(ctrl, sub)
		defer f.release()
		c := eng.AtCall(f.record(0).At, feedStep)
		c.A = f
		c.N0 = 0
	}
	eng.RunUntil(sub.Duration())
	deadline := sub.Duration() + drainGrace
	for !ctrl.Drained() && eng.Now() < deadline {
		eng.RunFor(sim.Second)
	}
	if !ctrl.Drained() {
		return 0, fmt.Errorf("core: array %q did not drain within %ds grace — controller wedged or hopelessly overloaded",
			sub.Name(), drainGrace/sim.Second)
	}
	// Let an in-flight hot-spare rebuild finish so the results report its
	// duration (the foreground workload is already drained).
	if ra, ok := ctrl.(interface{ RebuildActive() bool }); ok {
		for ra.RebuildActive() && eng.Now() < deadline {
			eng.RunFor(sim.Second)
		}
	}
	return eng.Now(), nil
}
