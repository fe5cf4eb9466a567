// Package cliflag binds the simulator's shared command-line vocabulary
// (organization, geometry, caching, fault injection, observability) to a
// core.Config, so every CLI front-end exposes the same flags with the
// same semantics instead of duplicating ~20 flag definitions and their
// parsing.
//
// Each flag is declared once, next to the config edit it makes. The
// binding is an overlay: Config() starts from core.DefaultConfig for the
// chosen organization and runs the edit of exactly the flags the user
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

// Binding maps each registered flag's name to the config edit it makes
// when the command line sets it.
type Binding struct {
	fs    *flag.FlagSet
	edits map[string]func(*core.Config) error
}

// def registers a flag made by newFlag and the edit it makes to the
// config when set.
func def[T any](b *Binding, newFlag func(string, T, string) *T, name string, value T, usage string, edit func(*core.Config, T)) *T {
	return defErr(b, newFlag, name, value, usage, func(c *core.Config, v T) error {
		edit(c, v)
		return nil
	})
}

// defErr is def for an edit that can reject the flag's value.
func defErr[T any](b *Binding, newFlag func(string, T, string) *T, name string, value T, usage string, edit func(*core.Config, T) error) *T {
	p := newFlag(name, value, usage)
	b.edits[name] = func(c *core.Config) error { return edit(c, *p) }
	return p
}

// companion registers a flag that acts only while its key flags arm it:
// either only the key flag's edit reads it (edit is nil), or its own edit
// sets a field that nothing reads unless armed() holds. Setting it while
// armed() is false would do nothing, so it is an error naming the key.
func companion[T any](b *Binding, newFlag func(string, T, string) *T, name string, value T, usage, key string, armed func() bool, edit func(*core.Config, T)) *T {
	return defErr(b, newFlag, name, value, usage, func(c *core.Config, v T) error {
		if !armed() {
			return fmt.Errorf("cliflag: -%s does nothing without %s", name, key)
		}
		if edit != nil {
			edit(c, v)
		}
		return nil
	})
}

// Bind registers the shared simulation flags on fs. Call Config after
// fs.Parse.
func Bind(fs *flag.FlagSet) *Binding {
	b := &Binding{fs: fs, edits: make(map[string]func(*core.Config) error)}
	// -org picks the DefaultConfig that Config starts from.
	fs.String("org", "raid5", "organization: "+strings.Join(array.OrgNames(), ", "))
	def(b, fs.Int, "n", 10, "data disks per array (N)", func(c *core.Config, v int) { c.N = v })
	def(b, fs.Int, "su", 1, "striping unit in blocks (RAID5/RAID4/RAID1/0)", func(c *core.Config, v int) { c.StripingUnit = v })
	defErr(b, fs.String, "sync", "df", "parity sync policy: si, rf, rfpr, df, dfpr", func(c *core.Config, v string) (err error) {
		c.Sync, err = array.ParseSyncPolicy(v)
		return err
	})
	defErr(b, fs.String, "placement", "middle", "parity striping placement: middle or end", func(c *core.Config, v string) error {
		switch strings.ToLower(v) {
		case "middle":
			c.Placement = layout.MiddlePlacement
		case "end":
			c.Placement = layout.EndPlacement
		default:
			return fmt.Errorf("cliflag: unknown placement %q (want middle or end)", v)
		}
		return nil
	})
	def(b, fs.Int64, "parity-unit", 0, "fine-grained parity striping unit (0 = classic)", func(c *core.Config, v int64) { c.ParityStripeUnit = v })
	def(b, fs.Bool, "cached", false, "enable the non-volatile controller cache", func(c *core.Config, v bool) { c.Cached = v })
	def(b, fs.Int, "cache-mb", 16, "cache size per array, MB", func(c *core.Config, v int) { c.CacheMB = v })
	def(b, fs.Float64, "destage-sec", 1, "destage period, seconds", func(c *core.Config, v float64) {
		c.DestagePeriod = sim.Time(v * float64(sim.Second))
	})
	def(b, fs.Bool, "pure-lru", false, "write back only on eviction (no periodic destage)", func(c *core.Config, v bool) { c.PureLRUWriteback = v })
	def(b, fs.Uint64, "seed", 1, "simulation seed", func(c *core.Config, v uint64) { c.Seed = v })
	defErr(b, fs.String, "sched", "fifo", "drive queue discipline: fifo, sstf, look", func(c *core.Config, v string) (err error) {
		c.DiskSched, err = disk.ParseSched(v)
		return err
	})
	def(b, fs.Bool, "sync-spindles", false, "synchronize spindle rotation across drives", func(c *core.Config, v bool) { c.SyncSpindles = v })
	def(b, fs.Int, "workers", 0, "parallel simulation workers (0 = GOMAXPROCS); never changes results", func(c *core.Config, v int) { c.Workers = v })

	def(b, fs.Int, "spares", 0, "hot spares per array; a failure consumes one and triggers a background rebuild", func(c *core.Config, v int) { c.Spares = v })
	var failDisk *int
	failAt := def(b, fs.Duration, "fail-at", 0, "inject a disk failure at this time into the run (e.g. 30s; 0 = none)", func(c *core.Config, v time.Duration) {
		if v > 0 {
			c.Fault.DiskFails = append(c.Fault.DiskFails, fault.DiskFail{Disk: *failDisk, At: sim.Time(v)})
		}
	})
	failDisk = companion(b, fs.Int, "fail-disk", 0, "physical disk to fail at -fail-at (array-major numbering)",
		"a positive -fail-at", func() bool { return *failAt > 0 }, nil)
	mttf := def(b, fs.Float64, "mttf-hours", 0, "give every drive an exponential lifetime with this mean (0 = no stochastic failures)", func(c *core.Config, v float64) {
		c.Fault.MTTF = sim.Time(v * 3600 * float64(sim.Second))
	})
	sectorRate := def(b, fs.Float64, "sector-error-rate", 0, "per-block probability a media read surfaces a latent sector error", func(c *core.Config, v float64) { c.Fault.SectorErrorRate = v })
	def(b, fs.Duration, "cache-fail-at", 0, "fail the NVRAM cache at this time (0 = never)", func(c *core.Config, v time.Duration) { c.Fault.CacheFailAt = sim.Time(v) })
	// The seed feeds fault's three stochastic streams: drive lifetimes,
	// latent sector errors and a sick disk's transient errors.
	var sickDisk *int
	var transientRate *float64
	transient := func() bool { return *sickDisk >= 0 && *transientRate > 0 }
	companion(b, fs.Uint64, "fault-seed", 0, "seed for the stochastic fault streams",
		"-mttf-hours, -sector-error-rate or a sick disk's -transient-rate",
		func() bool { return *mttf > 0 || *sectorRate > 0 || transient() },
		func(c *core.Config, v uint64) { c.Fault.Seed = v })

	def(b, fs.Duration, "obs-window", 0, "record a windowed time series with this window width (e.g. 1s; 0 = off)", func(c *core.Config, v time.Duration) { c.Obs.Window = sim.Time(v) })
	def(b, fs.Int, "obs-trace", 0, "keep the newest N observability events for JSONL export (0 = off)", func(c *core.Config, v int) { c.Obs.TraceCap = v })
	def(b, fs.Int, "trace-topk", 0, "trace per-request span trees, keeping the slowest K per class (0 = off)", func(c *core.Config, v int) { c.Obs.SpanTopK = v })
	def(b, fs.Bool, "self-metrics", false, "meter the engine itself (events/sec, heap depth, allocations); never changes results", func(c *core.Config, v bool) { c.SelfMetrics = v })

	def(b, fs.Duration, "deadline", 0, "gold-class response deadline (e.g. 100ms; 0 = off)", func(c *core.Config, v time.Duration) { c.Robust.Deadline = sim.Time(v) })
	def(b, fs.Duration, "batch-deadline", 0, "batch-class response deadline (0 = use -deadline)", func(c *core.Config, v time.Duration) { c.Robust.BatchDeadline = sim.Time(v) })
	companion(b, fs.Int, "retries", 0, "retry a transient read error up to N times before redundancy fallback",
		"-sick-disk >= 0 and a positive -transient-rate", transient,
		func(c *core.Config, v int) { c.Robust.Retries = v })
	def(b, fs.Duration, "hedge-after", 0, "hedge mirror reads still unanswered after this delay (0 = off)", func(c *core.Config, v time.Duration) { c.Robust.HedgeAfter = sim.Time(v) })
	def(b, fs.Float64, "hedge-quantile", 0, "derive the hedge delay from this read-response quantile, e.g. 0.95 (0 = fixed)", func(c *core.Config, v float64) { c.Robust.HedgeQuantile = v })
	def(b, fs.Int, "shed-queue", 0, "shed batch-class requests while total disk queue depth >= N (0 = off)", func(c *core.Config, v int) { c.Robust.ShedQueue = v })

	var sickAt, sickUntil, hangEvery, hangFor *time.Duration
	var slowFactor *float64
	sickDisk = def(b, fs.Int, "sick-disk", -1, "physical disk that turns sick (array-major numbering; -1 = none)", func(c *core.Config, v int) {
		if v >= 0 {
			c.Fault.SickDisks = append(c.Fault.SickDisks, fault.SickDisk{
				Disk:          v,
				At:            sim.Time(*sickAt),
				Until:         sim.Time(*sickUntil),
				SlowFactor:    *slowFactor,
				TransientRate: *transientRate,
				HangEvery:     sim.Time(*hangEvery),
				HangFor:       sim.Time(*hangFor),
			})
		}
	})
	const sickKey = "-sick-disk >= 0"
	sick := func() bool { return *sickDisk >= 0 }
	sickAt = companion(b, fs.Duration, "sick-at", 0, "when the sick disk's symptoms start", sickKey, sick, nil)
	sickUntil = companion(b, fs.Duration, "sick-until", 0, "when the sickness clears (0 = never)", sickKey, sick, nil)
	slowFactor = companion(b, fs.Float64, "slow-factor", 0, "sick disk serves this many times slower (<=1 = no slowdown)", sickKey, sick, nil)
	transientRate = companion(b, fs.Float64, "transient-rate", 0, "per-block probability a sick disk's media pass fails transiently", sickKey, sick, nil)
	hangEvery = companion(b, fs.Duration, "hang-every", 0, "sick disk freezes at this period (0 = never)", sickKey, sick, nil)
	hangFor = companion(b, fs.Duration, "hang-for", 0, "duration of each sick-disk freeze", sickKey, sick, nil)
	return b
}

// Config resolves the parsed flags into a core.Config: the organization's
// DefaultConfig with the edit of exactly each flag the user set. The
// caller still owns workload-dependent fields (DataDisks from the trace).
func (b *Binding) Config() (core.Config, error) {
	org, err := array.ParseOrg(b.fs.Lookup("org").Value.String())
	if err != nil {
		return core.Config{}, err
	}
	def := core.DefaultConfig(org)
	cfg := def
	var set []string
	b.fs.Visit(func(f *flag.Flag) {
		if edit := b.edits[f.Name]; edit != nil && err == nil {
			err = edit(&cfg)
			set = append(set, f.Name)
		}
	})
	if err != nil {
		return core.Config{}, err
	}
	// A setting the organization does not read is an error naming the
	// first set flag whose edit alone reproduces it.
	if err := cfg.Unread(def); err != nil {
		for _, name := range set {
			one := def
			if b.edits[name](&one) == nil && fmt.Sprint(one.Unread(def)) == err.Error() {
				return core.Config{}, fmt.Errorf("cliflag: -%s: %w", name, err)
			}
		}
		return core.Config{}, err
	}
	return cfg, nil
}
