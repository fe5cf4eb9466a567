// Package core is the public façade of the simulator: it takes a system
// configuration (organization, array size, caching, ...) and an I/O
// trace, partitions the trace across the system's independent arrays,
// simulates every array — in parallel, arrays share nothing but the
// workload — and aggregates the results the paper's figures report.
package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"

	"raidsim/internal/array"
	"raidsim/internal/cache"
	"raidsim/internal/disk"
	"raidsim/internal/fault"
	"raidsim/internal/geom"
	"raidsim/internal/layout"
	"raidsim/internal/obs"
	"raidsim/internal/sim"
	"raidsim/internal/stats"
	"raidsim/internal/trace"
)

// Config describes a whole storage system: DataDisks' worth of database
// spread over ceil(DataDisks/N) arrays of the chosen organization. The
// comparisons are equal-capacity, as in the paper: Mirror doubles the
// drives, parity organizations use N+1 drives per array.
type Config struct {
	Org       array.Org
	DataDisks int // total data-disk equivalents (130 for Trace 1, 10 for Trace 2)
	N         int // data-disk equivalents per array
	Spec      geom.Spec

	StripingUnit     int              // RAID5/RAID4 striping unit, blocks
	Placement        layout.Placement // parity striping: parity area placement
	ParityStripeUnit int64            // fine-grained parity striping unit; 0 = classic
	Sync             array.SyncPolicy

	Cached           bool
	CacheMB          int // per-array NV cache size
	DestagePeriod    sim.Time
	PureLRUWriteback bool
	// Warmup excludes requests arriving before this time from the
	// statistics (still simulated), for steady-state measurement.
	Warmup sim.Time

	BuffersPerDisk int
	// DiskSched selects the drives' queue discipline (FIFO is the
	// paper's model; SSTF/LOOK are extensions).
	DiskSched disk.Sched
	// SyncSpindles synchronizes all spindles' rotational phase (the
	// paper assumes unsynchronized spindles).
	SyncSpindles bool
	Seed         uint64

	// Workers caps concurrent array simulations; 0 means GOMAXPROCS.
	// Each worker owns one engine for the whole run and Resets it
	// between the arrays it claims. Every per-array seed is a pure
	// function of (Seed, g) and results merge in array-index order, so
	// the worker count never changes a bit of any result — only host
	// wall-clock time.
	Workers int

	// Fault configures system-wide fault injection. Deterministic disk
	// failures (Fault.DiskFails) address physical disks in array-major
	// order and are routed to the array that owns each drive; stochastic
	// settings (MTTF, sector errors, cache failure) apply to every array,
	// each with an independently derived seed.
	Fault fault.Config
	// Spares is the per-array hot-spare pool.
	Spares int
	// RebuildChunk is blocks per rebuild I/O (default 48); RebuildPause
	// inserts idle time between chunks to favor foreground traffic.
	RebuildChunk int
	RebuildPause sim.Time

	// Robust configures the request-robustness layer (deadlines, retry,
	// hedged reads, overload shedding), applied to every array. The zero
	// value disables it and leaves simulations bit-identical.
	Robust array.RobustConfig

	// Obs configures the windowed time-series observability layer. The
	// zero value disables it, leaving every simulation bit-identical;
	// Obs.Disks is derived per array and ignored here.
	Obs obs.Config

	// SelfMetrics meters each array's engine (events/sec, heap
	// high-water, Call free-list traffic, allocation deltas) into
	// Results.Engine. Pure host-side observation: a metered run executes
	// the same simulation instructions as an unmetered one and produces
	// bit-identical results.
	SelfMetrics bool
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.DataDisks <= 0 {
		return fmt.Errorf("core: DataDisks must be positive")
	}
	if c.N < 2 {
		return fmt.Errorf("core: N must be >= 2")
	}
	// N may exceed DataDisks: the paper sweeps array sizes past the
	// small system's 10 data disks, striping the same database over a
	// wider (partly empty) array.
	if err := c.Spec.Validate(); err != nil {
		return err
	}
	if c.Spares < 0 {
		return fmt.Errorf("core: negative spare count %d", c.Spares)
	}
	if err := c.Robust.Validate(); err != nil {
		return err
	}
	if err := c.Fault.Validate(); err != nil {
		return err
	}
	// Retries act only on transient read errors, which only a sick disk
	// with a positive TransientRate raises. (Fault.Seed without a
	// stochastic stream is rejected by cliflag alone: callers that seed
	// every run, such as the benchmark, set it regardless.)
	if c.Robust.Retries > 0 && !slices.ContainsFunc(c.Fault.SickDisks, func(s fault.SickDisk) bool { return s.TransientRate > 0 }) {
		return fmt.Errorf("core: Robust.Retries does nothing without a sick disk with a positive TransientRate")
	}
	return c.Unread(Config{})
}

// Unread reports, naming both, the first field c sets that c.Org does
// not read (array.Org.Reads): set means unequal to base's value and to
// DefaultConfig(c.Org)'s. Validate's base is the zero Config.
func (c Config) Unread(base Config) error {
	b, d := &base, DefaultConfig(c.Org)
	return cmp.Or(
		unread(&c, "StripingUnit", array.ReadsStripingUnit, c.StripingUnit, b.StripingUnit, d.StripingUnit),
		unread(&c, "Placement", array.ReadsParityLayout, c.Placement, b.Placement, d.Placement),
		unread(&c, "ParityStripeUnit", array.ReadsParityLayout, c.ParityStripeUnit, b.ParityStripeUnit, d.ParityStripeUnit),
		unread(&c, "Sync", array.ReadsSync, c.Sync, b.Sync, d.Sync),
		unread(&c, "SyncSpindles", array.ReadsSpindleSync, c.SyncSpindles, b.SyncSpindles, d.SyncSpindles),
		unread(&c, "Robust.HedgeAfter", array.ReadsHedging, c.Robust.HedgeAfter, b.Robust.HedgeAfter, d.Robust.HedgeAfter),
		unread(&c, "Robust.HedgeQuantile", array.ReadsHedging, c.Robust.HedgeQuantile, b.Robust.HedgeQuantile, d.Robust.HedgeQuantile),
		unread(&c, "Cached", array.ReadsCache, c.Cached, b.Cached, d.Cached),
		unread(&c, "CacheMB", cacheOwn, c.CacheMB, b.CacheMB, d.CacheMB),
		unread(&c, "DestagePeriod", cacheOwn, c.DestagePeriod, b.DestagePeriod, d.DestagePeriod),
		unread(&c, "PureLRUWriteback", cacheOwn, c.PureLRUWriteback, b.PureLRUWriteback, d.PureLRUWriteback),
		unread(&c, "Fault.CacheFailAt", cacheOwn, c.Fault.CacheFailAt, b.Fault.CacheFailAt, d.Fault.CacheFailAt),
		unread(&c, "Fault.DiskFails", array.ReadsFaults, len(c.Fault.DiskFails), len(b.Fault.DiskFails), len(d.Fault.DiskFails)),
		unread(&c, "Fault.SickDisks", array.ReadsFaults, len(c.Fault.SickDisks), len(b.Fault.SickDisks), len(d.Fault.SickDisks)),
		unread(&c, "Fault.MTTF", array.ReadsFaults, c.Fault.MTTF, b.Fault.MTTF, d.Fault.MTTF),
		unread(&c, "Fault.SectorErrorRate", array.ReadsFaults, c.Fault.SectorErrorRate, b.Fault.SectorErrorRate, d.Fault.SectorErrorRate),
		unread(&c, "Fault.Seed", array.ReadsFaults, c.Fault.Seed, b.Fault.Seed, d.Fault.Seed),
		unread(&c, "Spares", array.ReadsFaults, c.Spares, b.Spares, d.Spares),
		unread(&c, "RebuildChunk", array.ReadsRebuild, c.RebuildChunk, b.RebuildChunk, d.RebuildChunk),
		unread(&c, "RebuildPause", array.ReadsRebuild, c.RebuildPause, b.RebuildPause, d.RebuildPause),
	)
}

// cacheOwn marks the cache's own fields: read where array.ReadsCache is,
// and only when Cached is set.
const cacheOwn array.Setting = 0

// unread is Unread for one field of group g, whose values in c, the base
// and DefaultConfig are v, base and def.
func unread[T comparable](c *Config, name string, g array.Setting, v, base, def T) error {
	switch {
	case v == base || v == def:
		return nil
	case g == cacheOwn && c.Org.Reads(array.ReadsCache) && !c.Cached:
		return fmt.Errorf("core: %v reads %s only when Cached", c.Org, name)
	case g == cacheOwn && c.Org.Reads(array.ReadsCache), c.Org.Reads(g):
		return nil
	}
	return fmt.Errorf("core: %v does not read %s", c.Org, name)
}

// arrays returns the number of arrays the system needs.
func (c Config) arrays() int { return (c.DataDisks + c.N - 1) / c.N }

// PhysicalDisks returns the drive count Run simulates, the cost side of
// the paper's equal-capacity comparison.
func (c Config) PhysicalDisks() int {
	n := 0
	for _, w := range c.groupDisks(c.arrays()) {
		n += c.Org.Width(w)
	}
	return n
}

func (c Config) arrayConfig(group, disks int, fc fault.Config, classes []trace.ClassInfo) array.Config {
	var rec *obs.Recorder
	if c.Obs.Enabled() {
		oc := c.Obs
		oc.Disks = c.Org.Width(disks)
		oc.Array = group
		for _, cl := range classes {
			oc.Classes = append(oc.Classes, cl.Name)
		}
		rec = obs.NewRecorder(oc)
	}
	return array.Config{
		Rec:              rec,
		Classes:          classes,
		Org:              c.Org,
		N:                disks,
		Spec:             c.Spec,
		StripingUnit:     c.StripingUnit,
		Placement:        c.Placement,
		ParityStripeUnit: c.ParityStripeUnit,
		Sync:             c.Sync,
		Cached:           c.Cached,
		CacheBlocks:      c.CacheMB << 20 / c.Spec.BlockBytes,
		DestagePeriod:    c.DestagePeriod,
		PureLRUWriteback: c.PureLRUWriteback,
		Warmup:           c.Warmup,
		BuffersPerDisk:   c.BuffersPerDisk,
		DiskSched:        c.DiskSched,
		SyncSpindles:     c.SyncSpindles,
		Seed:             c.Seed*1000003 + uint64(group)*7919 + 17,
		Fault:            fc,
		Spares:           c.Spares,
		RebuildChunk:     c.RebuildChunk,
		RebuildPause:     c.RebuildPause,
		Robust:           c.Robust,
	}
}

// groupDisks returns the data-disk width of each array group, mirroring
// the assignment Run and RunClosedLoop make.
func (c Config) groupDisks(ngroups int) []int {
	out := make([]int, ngroups)
	for g := range out {
		disks := c.N
		if g > 0 && g == ngroups-1 {
			// Tail array holds only the remaining data disks. (The g == 0
			// case with N > DataDisks intentionally keeps the full width:
			// the database stripes across the whole wider array.)
			disks = c.DataDisks - g*c.N
		}
		if disks < 2 {
			// A 1-disk tail array can't host a parity group; fold it into
			// a 2-disk array by borrowing capacity (the trace addresses
			// still fit after wrapping).
			disks = 2
		}
		out[g] = disks
	}
	return out
}

// groupFaults splits the system-wide fault config into per-array configs:
// deterministic failures land on the array owning the physical drive
// (array-major numbering), stochastic streams get per-group seeds.
func (c Config) groupFaults(widths []int) ([]fault.Config, error) {
	out := make([]fault.Config, len(widths))
	if !c.Fault.Enabled() {
		return out, nil
	}
	total := c.PhysicalDisks()
	for _, f := range c.Fault.DiskFails {
		if f.Disk >= total {
			return nil, fmt.Errorf("core: fault disk %d out of range; system has %d physical disks", f.Disk, total)
		}
	}
	for _, s := range c.Fault.SickDisks {
		if s.Disk >= total {
			return nil, fmt.Errorf("core: sick disk %d out of range; system has %d physical disks", s.Disk, total)
		}
	}
	offset := 0
	for g, w := range widths {
		pw := c.Org.Width(w)
		fc := c.Fault
		fc.DiskFails = nil
		for _, f := range c.Fault.DiskFails {
			if f.Disk >= offset && f.Disk < offset+pw {
				f.Disk -= offset
				fc.DiskFails = append(fc.DiskFails, f)
			}
		}
		fc.SickDisks = nil
		for _, s := range c.Fault.SickDisks {
			if s.Disk >= offset && s.Disk < offset+pw {
				s.Disk -= offset
				fc.SickDisks = append(fc.SickDisks, s)
			}
		}
		fc.Seed = c.Fault.Seed*1000003 + uint64(g)*7919 + 29
		out[g] = fc
		offset += pw
	}
	return out, nil
}

// Results aggregates a whole system's simulation.
type Results struct {
	Config Config
	Arrays int
	Events uint64

	// Engine aggregates per-array engine self-metrics (Config.SelfMetrics);
	// zero when metering is off. Each array is metered on the worker
	// engine that ran it, so Engine.Events equals Events. Wall time is
	// summed across arrays, so with concurrent workers it is engine-busy
	// time, not elapsed.
	Engine sim.MeterStats

	Requests  int64
	Resp      stats.Summary // response time, ms
	ReadResp  stats.Summary
	WriteResp stats.Summary

	// Fault-injection results: response times split by whether the array
	// was degraded when the request completed, plus aggregated fault
	// counters across all arrays.
	NormalResp   stats.Summary
	DegradedResp stats.Summary
	Fault        array.FaultResults
	// Robust aggregates the robustness-layer accounting (deadline
	// verdicts, retries, hedges, shed counts) across all arrays.
	Robust array.RobustResults
	// Classes reports each workload client class separately, merged
	// across arrays; nil for classless traces.
	Classes []array.ClassResults

	ReadHits, ReadMisses   int64
	WriteHits, WriteMisses int64

	DiskAccesses   []int64   // per physical disk, array-major order
	DiskUtil       []float64 // likewise
	SeekDistMean   float64
	HeldRotations  int64
	ParityAccesses int64
	Cache          cache.Stats

	// Stages attributes disk-side time to pipeline stages across all
	// arrays (queue wait / seek+rotate / transfer / parity sync /
	// cache-destage stall).
	Stages array.StageBreakdown

	// Series is the merged windowed time series across all arrays; nil
	// when observability is off (Config.Obs zero).
	Series *obs.Series
	// ObsEvents is the merged event trace in chronological order, each
	// event annotated with the array that emitted it. ObsEventsDropped
	// counts events the bounded per-array rings overwrote.
	ObsEvents        []obs.Event
	ObsEventsDropped int64

	// TailSpans are the retained slowest-K request span trees per class
	// across all arrays, slowest first; BgSpans the retained background
	// trees (destage batches, rebuild chunks, ...) in start order. Both
	// are nil unless Config.Obs.SpanTopK enabled the tracer.
	TailSpans []obs.SpanSample
	BgSpans   []obs.SpanSample
	// SpanTreesDropped counts background trees the bounded per-array
	// rings overwrote.
	SpanTreesDropped int64

	PerArray []*array.Results
}

// ReadHitRatio returns read hits over read requests.
func (r *Results) ReadHitRatio() float64 {
	n := r.ReadHits + r.ReadMisses
	if n == 0 {
		return 0
	}
	return float64(r.ReadHits) / float64(n)
}

// WriteHitRatio returns write hits over write requests.
func (r *Results) WriteHitRatio() float64 {
	n := r.WriteHits + r.WriteMisses
	if n == 0 {
		return 0
	}
	return float64(r.WriteHits) / float64(n)
}

// MeanResponseMS returns the overall mean response time in milliseconds —
// the y-axis of nearly every figure in the paper.
func (r *Results) MeanResponseMS() float64 { return r.Resp.Mean() }

// reqSLO resolves a record's SLO class: through the trace's class table
// when it has one (auto classes still classify by size), else by size —
// the classless behavior.
func reqSLO(classes []trace.ClassInfo, class uint8, blocks int) array.SLOClass {
	if int(class) < len(classes) {
		return array.EffectiveSLO(classes[class].SLO, blocks)
	}
	return array.ClassifyBlocks(blocks)
}

// Run simulates cfg against tr. Arrays are simulated concurrently.
func Run(cfg Config, tr *trace.Trace) (*Results, error) {
	return RunContext(context.Background(), cfg, tr)
}

// RunContext is Run with the run-lifecycle seam the campaign layer
// drives: ctx aborts the system between array simulations (an engine
// that has started finishes its share of the trace — the discrete-event
// loop has no safe preemption point — so cancellation latency is one
// array's runtime), and the per-run seed is injected through cfg.Seed, which
// every derived stream (per-array engines, fault streams, robustness
// jitter) fans out from deterministically.
func RunContext(ctx context.Context, cfg Config, tr *trace.Trace) (*Results, error) {
	out, _, err := execute(ctx, cfg, tr, replayOpen)
	return out, err
}

// attachObs folds the per-array recorders into the system results: one
// merged Series (histograms merged bin-wise, so system quantiles are
// exact w.r.t. the binning) and one chronological event trace annotated
// with array indices.
func attachObs(out *Results, recs []*obs.Recorder) {
	for g, rec := range recs {
		if rec == nil {
			continue
		}
		s := rec.Series()
		if out.Series == nil {
			out.Series = s
		} else {
			out.Series.Merge(s)
		}
		for _, e := range rec.Events() {
			e.Array = g
			out.ObsEvents = append(out.ObsEvents, e)
		}
		out.ObsEventsDropped += rec.EventsDropped()
		if tr := rec.Tracer(); tr != nil {
			for _, t := range tr.Requests() {
				out.TailSpans = append(out.TailSpans, obs.SpanSample{Array: g, Tree: t})
			}
			for _, t := range tr.Background() {
				out.BgSpans = append(out.BgSpans, obs.SpanSample{Array: g, Tree: t})
			}
			out.SpanTreesDropped += tr.BackgroundDropped()
		}
	}
	sort.SliceStable(out.ObsEvents, func(i, j int) bool {
		return out.ObsEvents[i].At < out.ObsEvents[j].At
	})
	// Re-sort across arrays: slowest requests first, background by start.
	sort.SliceStable(out.TailSpans, func(i, j int) bool {
		return out.TailSpans[i].Tree.Duration() > out.TailSpans[j].Tree.Duration()
	})
	sort.SliceStable(out.BgSpans, func(i, j int) bool {
		return out.BgSpans[i].Tree.Root().Start < out.BgSpans[j].Tree.Root().Start
	})
}

func merge(cfg Config, parts []*array.Results, events []uint64) *Results {
	out := &Results{Config: cfg, Arrays: len(parts), PerArray: parts}
	for i, p := range parts {
		out.Events += events[i]
		out.Requests += p.Requests
		out.Resp.Merge(&p.Resp)
		out.ReadResp.Merge(&p.ReadResp)
		out.WriteResp.Merge(&p.WriteResp)
		out.NormalResp.Merge(&p.NormalResp)
		out.DegradedResp.Merge(&p.DegradedResp)
		mergeFaultResults(&out.Fault, &p.Fault)
		out.Robust.Merge(&p.Robust)
		out.Classes = array.MergeClasses(out.Classes, p.Classes)
		out.ReadHits += p.ReadHits
		out.ReadMisses += p.ReadMisses
		out.WriteHits += p.WriteHits
		out.WriteMisses += p.WriteMisses
		out.DiskAccesses = append(out.DiskAccesses, p.DiskAccesses...)
		out.DiskUtil = append(out.DiskUtil, p.DiskUtil...)
		out.HeldRotations += p.HeldRotations
		out.ParityAccesses += p.ParityAccesses
		out.Stages.Add(&p.Stages)
		mergeCacheStats(&out.Cache, &p.Cache)
	}
	// Weighted mean of per-array seek distances, weighted by accesses.
	var wsum, w float64
	for _, p := range parts {
		var acc int64
		for _, a := range p.DiskAccesses {
			acc += a
		}
		wsum += p.SeekDistMean * float64(acc)
		w += float64(acc)
	}
	if w > 0 {
		out.SeekDistMean = wsum / w
	}
	return out
}

func mergeFaultResults(dst, src *array.FaultResults) {
	dst.Enabled = dst.Enabled || src.Enabled
	dst.Failures += src.Failures
	dst.CacheFailures += src.CacheFailures
	dst.SparesUsed += src.SparesUsed
	dst.Rebuilds += src.Rebuilds
	dst.RebuildTime += src.RebuildTime
	dst.RebuildActive = dst.RebuildActive || src.RebuildActive
	dst.DegradedTime += src.DegradedTime
	dst.DegradedWindows += src.DegradedWindows
	dst.DegradedActive = dst.DegradedActive || src.DegradedActive
	dst.DataLossEvents += src.DataLossEvents
	dst.LostReadBlocks += src.LostReadBlocks
	dst.LostWriteBlocks += src.LostWriteBlocks
	dst.DirtyBlocksLost += src.DirtyBlocksLost
	dst.SectorErrors += src.SectorErrors
	dst.SectorRetries += src.SectorRetries
	dst.SectorReconstructs += src.SectorReconstructs
	dst.FailoverReads += src.FailoverReads
	dst.SickOnsets += src.SickOnsets
	dst.SickClears += src.SickClears
	dst.Hangs += src.Hangs
	dst.TransientErrors += src.TransientErrors
}

func mergeCacheStats(dst, src *cache.Stats) {
	dst.Inserts += src.Inserts
	dst.Evictions += src.Evictions
	dst.DirtyEvictions += src.DirtyEvictions
	dst.OldCaptured += src.OldCaptured
	dst.OldSkipped += src.OldSkipped
	dst.Destages += src.Destages
	dst.ParityQueued += src.ParityQueued
	dst.ParityStalls += src.ParityStalls
	if src.PeakUsed > dst.PeakUsed {
		dst.PeakUsed = src.PeakUsed
	}
	if src.PeakParity > dst.PeakParity {
		dst.PeakParity = src.PeakParity
	}
}
