// Package cliflag binds the simulator's shared command-line vocabulary
// (organization, geometry, caching, fault injection, observability) to a
// core.Config, so every CLI front-end exposes the same flags with the
// same semantics instead of duplicating ~20 flag definitions and their
// parsing.
//
// The binding is an overlay: Config() starts from core.DefaultConfig for
// the chosen organization and applies only the flags the user explicitly
// set (flag.FlagSet.Visit), so defaults stay in exactly one place.
package cliflag

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"raidsim/internal/array"
	"raidsim/internal/core"
	"raidsim/internal/disk"
	"raidsim/internal/fault"
	"raidsim/internal/layout"
	"raidsim/internal/sim"
)

// Binding holds the registered flag values until Parse has run.
type Binding struct {
	fs *flag.FlagSet

	org       *string
	n         *int
	su        *int
	sync      *string
	placement *string
	punit     *int64
	cached    *bool
	cacheMB   *int
	destage   *float64
	pureLRU   *bool
	seed      *uint64
	sched     *string
	spindles  *bool
	workers   *int

	spares      *int
	failAt      *time.Duration
	failDisk    *int
	mttfHours   *float64
	sectorRate  *float64
	cacheFailAt *time.Duration
	faultSeed   *uint64

	obsWindow   *time.Duration
	obsTrace    *int
	traceTopK   *int
	selfMetrics *bool

	deadline      *time.Duration
	batchDeadline *time.Duration
	retries       *int
	retryBackoff  *time.Duration
	hedgeAfter    *time.Duration
	hedgeQuantile *float64
	shedQueue     *int

	sickDisk      *int
	sickAt        *time.Duration
	sickUntil     *time.Duration
	slowFactor    *float64
	transientRate *float64
	hangEvery     *time.Duration
	hangFor       *time.Duration
}

// Bind registers the shared simulation flags on fs. Call Config or Apply
// after fs.Parse.
func Bind(fs *flag.FlagSet) *Binding {
	return &Binding{
		fs:        fs,
		org:       fs.String("org", "raid5", "organization: "+strings.Join(array.OrgNames(), ", ")),
		n:         fs.Int("n", 10, "data disks per array (N)"),
		su:        fs.Int("su", 1, "striping unit in blocks (RAID5/RAID4/RAID1/0)"),
		sync:      fs.String("sync", "df", "parity sync policy: si, rf, rfpr, df, dfpr"),
		placement: fs.String("placement", "middle", "parity striping placement: middle or end"),
		punit:     fs.Int64("parity-unit", 0, "fine-grained parity striping unit (0 = classic)"),
		cached:    fs.Bool("cached", false, "enable the non-volatile controller cache"),
		cacheMB:   fs.Int("cache-mb", 16, "cache size per array, MB"),
		destage:   fs.Float64("destage-sec", 1, "destage period, seconds"),
		pureLRU:   fs.Bool("pure-lru", false, "write back only on eviction (no periodic destage)"),
		seed:      fs.Uint64("seed", 1, "simulation seed"),
		sched:     fs.String("sched", "fifo", "drive queue discipline: fifo, sstf, look"),
		spindles:  fs.Bool("sync-spindles", false, "synchronize spindle rotation across drives"),
		workers:   fs.Int("workers", 0, "parallel simulation workers (0 = GOMAXPROCS); never changes results"),

		spares:      fs.Int("spares", 0, "hot spares per array; a failure consumes one and triggers a background rebuild"),
		failAt:      fs.Duration("fail-at", 0, "inject a disk failure at this time into the run (e.g. 30s; 0 = none)"),
		failDisk:    fs.Int("fail-disk", 0, "physical disk to fail at -fail-at (array-major numbering)"),
		mttfHours:   fs.Float64("mttf-hours", 0, "give every drive an exponential lifetime with this mean (0 = no stochastic failures)"),
		sectorRate:  fs.Float64("sector-error-rate", 0, "per-block probability a media read surfaces a latent sector error"),
		cacheFailAt: fs.Duration("cache-fail-at", 0, "fail the NVRAM cache at this time (0 = never)"),
		faultSeed:   fs.Uint64("fault-seed", 0, "seed for the stochastic fault streams"),

		obsWindow:   fs.Duration("obs-window", 0, "record a windowed time series with this window width (e.g. 1s; 0 = off)"),
		obsTrace:    fs.Int("obs-trace", 0, "keep the newest N observability events for JSONL export (0 = off)"),
		traceTopK:   fs.Int("trace-topk", 0, "trace per-request span trees, keeping the slowest K per class (0 = off)"),
		selfMetrics: fs.Bool("self-metrics", false, "meter the engine itself (events/sec, heap depth, allocations); never changes results"),

		deadline:      fs.Duration("deadline", 0, "gold-class response deadline (e.g. 100ms; 0 = off)"),
		batchDeadline: fs.Duration("batch-deadline", 0, "batch-class response deadline (0 = use -deadline)"),
		retries:       fs.Int("retries", 0, "retry a transient read error up to N times before redundancy fallback"),
		retryBackoff:  fs.Duration("retry-backoff", 0, "base retry backoff, doubled per attempt with jitter (default 1ms)"),
		hedgeAfter:    fs.Duration("hedge-after", 0, "hedge mirror reads still unanswered after this delay (0 = off)"),
		hedgeQuantile: fs.Float64("hedge-quantile", 0, "derive the hedge delay from this read-response quantile, e.g. 0.95 (0 = fixed)"),
		shedQueue:     fs.Int("shed-queue", 0, "shed batch-class requests while total disk queue depth >= N (0 = off)"),

		sickDisk:      fs.Int("sick-disk", -1, "physical disk that turns sick (array-major numbering; -1 = none)"),
		sickAt:        fs.Duration("sick-at", 0, "when the sick disk's symptoms start"),
		sickUntil:     fs.Duration("sick-until", 0, "when the sickness clears (0 = never)"),
		slowFactor:    fs.Float64("slow-factor", 0, "sick disk serves this many times slower (<=1 = no slowdown)"),
		transientRate: fs.Float64("transient-rate", 0, "per-block probability a sick disk's media pass fails transiently"),
		hangEvery:     fs.Duration("hang-every", 0, "sick disk freezes at this period (0 = never)"),
		hangFor:       fs.Duration("hang-for", 0, "duration of each sick-disk freeze"),
	}
}

// Config resolves the parsed flags into a core.Config: the organization's
// DefaultConfig overlaid with exactly the flags the user set. The caller
// still owns workload-dependent fields (DataDisks from the trace).
func (b *Binding) Config() (core.Config, error) {
	org, err := array.ParseOrg(*b.org)
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.DefaultConfig(org)
	if err := b.Apply(&cfg); err != nil {
		return core.Config{}, err
	}
	return cfg, nil
}

// Apply overlays onto cfg only the flags explicitly set on the command
// line, leaving everything else (a DefaultConfig, an experiment's base
// config, ...) untouched.
func (b *Binding) Apply(cfg *core.Config) error {
	var err error
	set := make(map[string]bool)
	b.fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	fail := func(e error) {
		if err == nil {
			err = e
		}
	}
	if set["org"] {
		org, e := array.ParseOrg(*b.org)
		if e != nil {
			fail(e)
		} else {
			cfg.Org = org
		}
	}
	if set["n"] {
		cfg.N = *b.n
	}
	if set["su"] {
		cfg.StripingUnit = *b.su
	}
	if set["sync"] {
		p, e := array.ParseSyncPolicy(*b.sync)
		if e != nil {
			fail(e)
		} else {
			cfg.Sync = p
		}
	}
	if set["placement"] {
		switch strings.ToLower(*b.placement) {
		case "middle":
			cfg.Placement = layout.MiddlePlacement
		case "end":
			cfg.Placement = layout.EndPlacement
		default:
			fail(fmt.Errorf("cliflag: unknown placement %q (want middle or end)", *b.placement))
		}
	}
	if set["parity-unit"] {
		cfg.ParityStripeUnit = *b.punit
	}
	if set["cached"] {
		cfg.Cached = *b.cached
	}
	if set["cache-mb"] {
		cfg.CacheMB = *b.cacheMB
	}
	if set["destage-sec"] {
		cfg.DestagePeriod = sim.Time(*b.destage * float64(sim.Second))
	}
	if set["pure-lru"] {
		cfg.PureLRUWriteback = *b.pureLRU
	}
	if set["seed"] {
		cfg.Seed = *b.seed
	}
	if set["sched"] {
		sd, e := disk.ParseSched(*b.sched)
		if e != nil {
			fail(e)
		} else {
			cfg.DiskSched = sd
		}
	}
	if set["sync-spindles"] {
		cfg.SyncSpindles = *b.spindles
	}
	if set["workers"] {
		cfg.Workers = *b.workers
	}
	if set["spares"] {
		cfg.Spares = *b.spares
	}
	if set["mttf-hours"] {
		cfg.Fault.MTTF = sim.Time(*b.mttfHours * 3600 * float64(sim.Second))
	}
	if set["sector-error-rate"] {
		cfg.Fault.SectorErrorRate = *b.sectorRate
	}
	if set["cache-fail-at"] {
		cfg.Fault.CacheFailAt = sim.Time(*b.cacheFailAt)
	}
	if set["fault-seed"] {
		cfg.Fault.Seed = *b.faultSeed
	}
	if set["fail-at"] && *b.failAt > 0 {
		cfg.Fault.DiskFails = append(cfg.Fault.DiskFails,
			fault.DiskFail{Disk: *b.failDisk, At: sim.Time(*b.failAt)})
	}
	if set["deadline"] {
		cfg.Robust.Deadline = sim.Time(*b.deadline)
	}
	if set["batch-deadline"] {
		cfg.Robust.BatchDeadline = sim.Time(*b.batchDeadline)
	}
	if set["retries"] {
		cfg.Robust.Retries = *b.retries
	}
	if set["retry-backoff"] {
		cfg.Robust.RetryBackoff = sim.Time(*b.retryBackoff)
	}
	if set["hedge-after"] {
		cfg.Robust.HedgeAfter = sim.Time(*b.hedgeAfter)
	}
	if set["hedge-quantile"] {
		cfg.Robust.HedgeQuantile = *b.hedgeQuantile
	}
	if set["shed-queue"] {
		cfg.Robust.ShedQueue = *b.shedQueue
	}
	if set["sick-disk"] && *b.sickDisk >= 0 {
		cfg.Fault.SickDisks = append(cfg.Fault.SickDisks, fault.SickDisk{
			Disk:          *b.sickDisk,
			At:            sim.Time(*b.sickAt),
			Until:         sim.Time(*b.sickUntil),
			SlowFactor:    *b.slowFactor,
			TransientRate: *b.transientRate,
			HangEvery:     sim.Time(*b.hangEvery),
			HangFor:       sim.Time(*b.hangFor),
		})
	}
	if set["obs-window"] {
		cfg.Obs.Window = sim.Time(*b.obsWindow)
	}
	if set["obs-trace"] {
		cfg.Obs.TraceCap = *b.obsTrace
	}
	if set["trace-topk"] {
		cfg.Obs.SpanTopK = *b.traceTopK
	}
	if set["self-metrics"] {
		cfg.SelfMetrics = *b.selfMetrics
	}
	return err
}
