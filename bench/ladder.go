package main

import (
	"fmt"
	"runtime"
	"time"

	"raidsim/internal/array"
	"raidsim/internal/core"
	"raidsim/internal/disk"
	"raidsim/internal/fault"
	"raidsim/internal/geom"
	"raidsim/internal/obs"
	"raidsim/internal/sim"
	"raidsim/internal/trace"
)

// ladderRecords caps the array-0 sub-trace each rung replays, so the
// whole ladder costs a few seconds on every workload.
const ladderRecords = 20000

// rungRepeats is how many timings each rung's median takes. The ladder
// times every rung once per round, so host drift during the ladder
// spreads over all rungs instead of biasing one marginal.
const rungRepeats = 5

// rungMinTime is the least host time one timing covers; short sub-traces
// are replayed back to back until it is reached. The smoke test replays
// each rung once.
const rungMinTime = 150 * time.Millisecond

// rung is one stack the ladder replays: level 0 is the feeder alone, 1
// adds raw drives, 2 an array controller with the given layers on top.
type rung struct {
	name   string
	level  int
	layers [numLayers]bool
}

// ladder replays one array's sub-trace through stacks built from public
// constructors, one layer at a time, with the workload's own feeder.
type ladder struct {
	sub    *trace.Trace
	org    array.Org // the workload's ladderOrg; uncached rungs use flatOrg
	closed bool
	base   core.Config   // the workload's config for its ladder org
	std    core.Config   // standard robustness, fault and obs settings
	minT   time.Duration // least host time one timing covers
}

// flatOrg is the organization of rungs without the cache: RAID4 is only
// modelled cached, so its uncached rungs run RAID5, which shares the
// parity scheme without the dedicated parity disk.
func (l *ladder) flatOrg() array.Org {
	if l.org == array.OrgRAID4 {
		return array.OrgRAID5
	}
	return l.org
}

// rungs lists the ladder for a workload: sim, disk, array, then each layer
// the workload uses on top of the previous rung (the chain). A layer the
// workload does not use is a side rung: the array rung plus that layer
// alone (spans also need obs). base names the rung each marginal is
// measured against.
func rungs(uses [numLayers]bool) (list []rung, base map[string]string) {
	list = []rung{{name: "sim"}, {name: "disk", level: 1}, {name: "array", level: 2}}
	base = map[string]string{"disk": "sim", "array": "disk"}
	chain := list[2]
	for l := layer(0); l < numLayers; l++ {
		r := rung{name: layerNames[l], level: 2}
		if uses[l] {
			r.layers = chain.layers
			base[r.name] = chain.name
		} else {
			base[r.name] = "array"
			if l == layerSpans && !uses[layerObs] {
				r.layers[layerObs] = true
				base[r.name] = layerNames[layerObs]
			}
		}
		r.layers[l] = true
		if uses[l] {
			chain = r
		}
		list = append(list, r)
	}
	return list, base
}

// rungStat is one timing of a rung, per replayed request or event.
type rungStat struct {
	nsPerReq, nsPerEvent, bytesPerReq float64
}

// timeRung replays the sub-trace through the rung back to back until
// l.minT has passed and returns the per-request cost.
func (l *ladder) timeRung(r rung) (rungStat, error) {
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t := time.Now()
	var events uint64
	reps := 0
	for reps == 0 || time.Since(t) < l.minT {
		ev, err := l.replay(r)
		if err != nil {
			return rungStat{}, fmt.Errorf("ladder rung %s: %w", r.name, err)
		}
		events += ev
		reps++
	}
	d := float64(time.Since(t).Nanoseconds())
	runtime.ReadMemStats(&ms1)
	reqs := float64(reps * len(l.sub.Records))
	return rungStat{d / reqs, d / float64(events), float64(ms1.TotalAlloc-ms0.TotalAlloc) / reqs}, nil
}

// target is what the feeder admits records into.
type target interface {
	admit(r trace.Record)
	drained() bool
}

// replay runs the sub-trace once through a fresh stack and returns the
// engine events it executed.
func (l *ladder) replay(r rung) (uint64, error) {
	eng := sim.New()
	f := &feeder{eng: eng, recs: l.sub.Records}
	var onDone func()
	if l.closed {
		onDone = f.next
	}
	var tg target
	switch r.level {
	case 0:
		tg = &nopTarget{eng: eng, onDone: onDone}
	case 1:
		dt, err := newDiskTarget(eng, l.base.Spec, l.base.N, onDone)
		if err != nil {
			return 0, err
		}
		tg = dt
	default:
		ctrl, err := array.New(eng, l.arrayConfig(r))
		if err != nil {
			return 0, err
		}
		tg = &arrayTarget{ctrl: ctrl, cap: ctrl.DataBlocks(), classes: l.sub.Classes, onDone: onDone}
	}
	f.tg = tg
	if err := f.run(l.closed); err != nil {
		return 0, err
	}
	return eng.Steps(), nil
}

// arrayConfig builds the array rung's controller config: the workload's
// array with only the rung's layers on.
func (l *ladder) arrayConfig(r rung) array.Config {
	c := arrayConfigOf(l.base)
	c.Org, c.Cached, c.Classes = l.flatOrg(), false, l.sub.Classes
	c.Robust, c.Fault, c.Spares = array.RobustConfig{}, fault.Config{}, 0
	if r.layers[layerCache] {
		c.Org, c.Cached = l.org, true
	}
	if r.layers[layerRobust] {
		c.Robust = l.std.Robust
	}
	if r.layers[layerFault] {
		c.Fault, c.Spares = l.faultConfig(), l.std.Spares
	}
	if r.layers[layerObs] {
		oc := l.std.Obs
		oc.Disks = physDisks(c.Org, c.N)
		if !r.layers[layerSpans] {
			oc.SpanTopK = 0
		}
		for _, cl := range l.sub.Classes {
			oc.Classes = append(oc.Classes, cl.Name)
		}
		c.Rec = obs.NewRecorder(oc)
	}
	return c
}

// arrayConfigOf maps a system config onto the config of one of its arrays,
// as core does for each array it simulates.
func arrayConfigOf(c core.Config) array.Config {
	return array.Config{
		Org: c.Org, N: c.N, Spec: c.Spec, StripingUnit: c.StripingUnit, Placement: c.Placement,
		ParityStripeUnit: c.ParityStripeUnit, Sync: c.Sync, Cached: c.Cached,
		CacheBlocks: c.CacheMB << 20 / c.Spec.BlockBytes, DestagePeriod: c.DestagePeriod,
		PureLRUWriteback: c.PureLRUWriteback, Warmup: c.Warmup, BuffersPerDisk: c.BuffersPerDisk,
		DiskSched: c.DiskSched, SyncSpindles: c.SyncSpindles, Seed: c.Seed,
		Robust: c.Robust, Fault: c.Fault, Spares: c.Spares,
		RebuildChunk: c.RebuildChunk, RebuildPause: c.RebuildPause,
	}
}

// faultConfig moves the standard faults into the replayed window, which
// is far shorter than the workload's: the disk fails halfway through and
// the sick disk is sick for the middle third.
func (l *ladder) faultConfig() fault.Config {
	fc := l.std.Fault
	span := l.sub.Duration()
	fc.DiskFails = nil
	for _, f := range l.std.Fault.DiskFails {
		fc.DiskFails = append(fc.DiskFails, fault.DiskFail{Disk: f.Disk, At: span / 2})
	}
	fc.SickDisks = nil
	for _, s := range l.std.Fault.SickDisks {
		s.At, s.Until = span/3, 2*span/3
		fc.SickDisks = append(fc.SickDisks, s)
	}
	return fc
}

// physDisks is the drive count of one array of n data disks.
func physDisks(org array.Org, n int) int {
	switch org {
	case array.OrgMirror, array.OrgRAID10:
		return 2 * n
	case array.OrgBase, array.OrgRAID0:
		return n
	}
	return n + 1
}

// feeder replays records the way core does: open loop schedules one
// Engine.AtCall per record at its arrival time; closed loop keeps
// closedMPL requests outstanding and submits the next on completion.
type feeder struct {
	eng  *sim.Engine
	recs []trace.Record
	idx  int
	tg   target
}

func feedFire(e *sim.Engine, c *sim.Call) {
	f := c.A.(*feeder)
	f.tg.admit(f.recs[f.idx])
	f.idx++
	if f.idx < len(f.recs) {
		nc := e.AtCall(f.recs[f.idx].At, feedFire)
		nc.A = f
	}
}

// next admits the next record, if any (closed loop).
func (f *feeder) next() {
	if f.idx < len(f.recs) {
		f.idx++
		f.tg.admit(f.recs[f.idx-1])
	}
}

func (f *feeder) run(closed bool) error {
	if len(f.recs) == 0 {
		return nil
	}
	done := func() bool { return f.idx >= len(f.recs) && f.tg.drained() }
	if closed {
		for i := 0; i < closedMPL; i++ {
			f.next()
		}
		for steps := 0; !done() && steps < 1<<26; steps++ {
			if !f.eng.Step() {
				f.eng.RunFor(sim.Millisecond)
			}
		}
	} else {
		c := f.eng.AtCall(f.recs[0].At, feedFire)
		c.A = f
		last := f.recs[len(f.recs)-1].At
		f.eng.RunUntil(last)
		for !done() && f.eng.Now() < last+3600*sim.Second {
			f.eng.RunFor(sim.Second)
		}
	}
	if !done() {
		return fmt.Errorf("replay did not drain")
	}
	return nil
}

// nopTarget admits nothing; in closed loop it completes each request on
// the next event so the feeder keeps its requests outstanding.
type nopTarget struct {
	eng    *sim.Engine
	onDone func()
}

func (t *nopTarget) admit(trace.Record) {
	if t.onDone != nil {
		c := t.eng.AfterCall(0, nopDone)
		c.A = t
	}
}

func nopDone(_ *sim.Engine, c *sim.Call) { c.A.(*nopTarget).onDone() }

func (t *nopTarget) drained() bool { return t.eng.Pending() == 0 }

// diskTarget sends each record to one raw drive as one disk.Request: the
// drive the record's address falls on, clipped at the drive's end.
type diskTarget struct {
	disks    []*disk.Disk
	bpd      int64
	inflight int
	onDone   func()
}

func newDiskTarget(eng *sim.Engine, spec geom.Spec, n int, onDone func()) (*diskTarget, error) {
	seek, err := geom.CalibrateSeek(spec)
	if err != nil {
		return nil, err
	}
	t := &diskTarget{bpd: spec.BlocksPerDisk(), onDone: onDone}
	for i := 0; i < n; i++ {
		d, err := disk.New(eng, i, spec, seek, float64(i)/float64(n))
		if err != nil {
			return nil, err
		}
		t.disks = append(t.disks, d)
	}
	return t, nil
}

func (t *diskTarget) admit(r trace.Record) {
	d := t.disks[int(r.LBA/t.bpd)%len(t.disks)]
	start := r.LBA % t.bpd
	blocks := r.Blocks
	if rem := t.bpd - start; int64(blocks) > rem {
		blocks = int(rem)
	}
	t.inflight++
	d.Submit(&disk.Request{
		StartBlock: start, Blocks: blocks, Write: r.Op != trace.Read,
		Priority: disk.PriNormal, OnDone: t.complete,
	})
}

func (t *diskTarget) complete() {
	t.inflight--
	if t.onDone != nil {
		t.onDone()
	}
}

func (t *diskTarget) drained() bool { return t.inflight == 0 }

// arrayTarget submits each record to an array controller exactly as core's
// feeder does: addresses wrapped into the capacity, SLO class resolved
// through the trace's class table.
type arrayTarget struct {
	ctrl    array.Controller
	cap     int64
	classes []trace.ClassInfo
	onDone  func()
}

func (t *arrayTarget) admit(r trace.Record) {
	lba := r.LBA
	if lba >= t.cap {
		lba %= t.cap
	}
	blocks := r.Blocks
	if rem := t.cap - lba; int64(blocks) > rem {
		blocks = int(rem)
	}
	slo := array.ClassifyBlocks(blocks)
	if int(r.Class) < len(t.classes) {
		slo = array.EffectiveSLO(t.classes[r.Class].SLO, blocks)
	}
	t.ctrl.Submit(array.Request{Op: r.Op, LBA: lba, Blocks: blocks, Class: slo, CClass: r.Class, OnComplete: t.onDone})
}

func (t *arrayTarget) drained() bool { return t.ctrl.Drained() }
