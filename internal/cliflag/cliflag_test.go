package cliflag

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"raidsim/internal/array"
	"raidsim/internal/core"
	"raidsim/internal/disk"
	"raidsim/internal/fault"
	"raidsim/internal/layout"
	"raidsim/internal/sim"
)

func TestConfigDefaults(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	b := Bind(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	cfg, err := b.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Org != array.OrgRAID5 || cfg.N != 10 || cfg.Sync != array.DF {
		t.Errorf("defaults: org=%v n=%d sync=%v, want raid5/10/DF", cfg.Org, cfg.N, cfg.Sync)
	}
	if cfg.Cached || cfg.CacheMB != 16 || cfg.Obs.Enabled() {
		t.Errorf("defaults: cached=%v cacheMB=%d obs=%v, want off/16/off", cfg.Cached, cfg.CacheMB, cfg.Obs)
	}
}

func TestConfigOverrides(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	b := Bind(fs)
	args := []string{
		"-org", "pstripe", "-n", "5", "-sync", "rfpr", "-placement", "end",
		"-cached", "-cache-mb", "32", "-destage-sec", "2.5", "-seed", "42",
		"-spares", "1", "-fail-at", "30s", "-fail-disk", "3",
		"-obs-window", "500ms", "-obs-trace", "128", "-workers", "3",
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	cfg, err := b.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Org != array.OrgParityStriping || cfg.N != 5 || cfg.Sync != array.RFPR {
		t.Errorf("org=%v n=%d sync=%v", cfg.Org, cfg.N, cfg.Sync)
	}
	if cfg.Placement != layout.EndPlacement {
		t.Errorf("placement = %v, want end", cfg.Placement)
	}
	if !cfg.Cached || cfg.CacheMB != 32 || cfg.DestagePeriod != sim.Time(2.5*float64(sim.Second)) {
		t.Errorf("cache config: cached=%v mb=%d destage=%d", cfg.Cached, cfg.CacheMB, cfg.DestagePeriod)
	}
	if cfg.Seed != 42 || cfg.Spares != 1 {
		t.Errorf("seed=%d spares=%d", cfg.Seed, cfg.Spares)
	}
	if len(cfg.Fault.DiskFails) != 1 || cfg.Fault.DiskFails[0].Disk != 3 || cfg.Fault.DiskFails[0].At != 30*sim.Second {
		t.Errorf("disk fails: %+v", cfg.Fault.DiskFails)
	}
	if cfg.Obs.Window != 500*sim.Millisecond || cfg.Obs.TraceCap != 128 {
		t.Errorf("obs: %+v", cfg.Obs)
	}
	if cfg.Workers != 3 {
		t.Errorf("workers = %d, want 3", cfg.Workers)
	}
}

// TestApplyOverlay: Config runs the edit of only the explicitly set
// flags, so a set flag changes just its field and an unset one never
// overwrites the organization default it disagrees with (-cached is
// false, raid4's default is cached).
func TestApplyOverlay(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	b := Bind(fs)
	if err := fs.Parse([]string{"-org", "raid4", "-n", "4"}); err != nil {
		t.Fatal(err)
	}
	got, err := b.Config()
	if err != nil {
		t.Fatal(err)
	}
	want := core.DefaultConfig(array.OrgRAID4)
	want.N = 4
	if !reflect.DeepEqual(got, want) {
		t.Errorf("overlay:\n got %+v\nwant %+v", got, want)
	}
}

// TestRAID4DefaultCached: the organization default carries through —
// RAID4 is only studied with parity caching.
func TestRAID4DefaultCached(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	b := Bind(fs)
	if err := fs.Parse([]string{"-org", "raid4"}); err != nil {
		t.Fatal(err)
	}
	cfg, err := b.Config()
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Cached {
		t.Error("raid4 should default to cached")
	}
}

func TestBadValues(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // substring of the error, if any
	}{
		{[]string{"-org", "raid9"}, ""},
		{[]string{"-sync", "nope"}, ""},
		{[]string{"-placement", "sideways"}, ""},
		{[]string{"-sched", "elevator-ish"}, ""},
		// A companion flag without the flag that arms it would do nothing.
		{[]string{"-fail-disk", "3"}, "-fail-disk does nothing without a positive -fail-at"},
		{[]string{"-fail-at", "0s", "-fail-disk", "3"}, "-fail-disk does nothing without a positive -fail-at"},
		{[]string{"-sick-at", "1s", "-slow-factor", "4"}, "-sick-at does nothing without -sick-disk >= 0"},
		{[]string{"-sick-disk", "-1", "-sick-until", "9s"}, "-sick-until does nothing without -sick-disk >= 0"},
		{[]string{"-slow-factor", "4"}, "-slow-factor does nothing without -sick-disk >= 0"},
		{[]string{"-transient-rate", "0.1"}, "-transient-rate does nothing without -sick-disk >= 0"},
		{[]string{"-hang-every", "3s"}, "-hang-every does nothing without -sick-disk >= 0"},
		// The fault seed needs a stochastic stream to seed, and retries
		// need transient errors to retry.
		{[]string{"-fault-seed", "5"}, "-fault-seed does nothing without -mttf-hours, -sector-error-rate or a sick disk's -transient-rate"},
		{[]string{"-fault-seed", "5", "-sick-disk", "2", "-slow-factor", "4"}, "-fault-seed does nothing without"},
		{[]string{"-fault-seed", "5", "-mttf-hours", "0"}, "-fault-seed does nothing without"},
		{[]string{"-retries", "2"}, "-retries does nothing without -sick-disk >= 0 and a positive -transient-rate"},
		{[]string{"-retries", "2", "-sick-disk", "2", "-slow-factor", "4"}, "-retries does nothing without"},
		{[]string{"-retries", "2", "-sector-error-rate", "0.01"}, "-retries does nothing without"},
		// A setting the organization does not read names the flag, the
		// organization and the field.
		{[]string{"-org", "base", "-sync", "rf"}, "cliflag: -sync: core: base does not read Sync"},
		{[]string{"-org", "raid4", "-sync", "si"}, "cliflag: -sync: core: raid4 does not read Sync"},
		{[]string{"-org", "pstripe", "-su", "4"}, "cliflag: -su: core: pstripe does not read StripingUnit"},
		{[]string{"-org", "raid3", "-sync-spindles"}, "cliflag: -sync-spindles: core: raid3 does not read SyncSpindles"},
		{[]string{"-org", "raid5", "-parity-unit", "8", "-cache-mb", "1", "-destage-sec", "5"}, "cliflag: -parity-unit: core: raid5 does not read ParityStripeUnit"},
		{[]string{"-org", "raid5", "-cache-mb", "1"}, "cliflag: -cache-mb: core: raid5 reads CacheMB only when Cached"},
		{[]string{"-org", "raid3", "-cached", "-cache-mb", "4"}, "cliflag: -cached: core: raid3 does not read Cached"},
		{[]string{"-org", "plog", "-spares", "1"}, "cliflag: -spares: core: plog does not read Spares"},
		{[]string{"-org", "raid5", "-hedge-after", "10ms"}, "cliflag: -hedge-after: core: raid5 does not read Robust.HedgeAfter"},
		{[]string{"-hang-for", "50ms"}, "-hang-for does nothing without -sick-disk >= 0"},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		b := Bind(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("parse %v: %v", tc.args, err)
		}
		if _, err := b.Config(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("args %v: error %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}

// TestBindWorkload: -scale defaults to the caller's value, -workload is
// the one selection flag, and an unset -workload falls back to the
// caller's default workload.
func TestBindWorkload(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	b := BindWorkload(fs, 0.001)
	if fs.Lookup("profile") != nil {
		t.Error("-profile is still registered")
	}
	if got := fs.Lookup("scale").DefValue; got != "0.001" {
		t.Errorf("-scale default %s, want 0.001", got)
	}
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if b.Selected() {
		t.Error("Selected with no -workload")
	}
	tr, err := b.Generate("dss")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "dss" {
		t.Errorf("fallback generated %q, want dss", tr.Name)
	}
	if err := fs.Parse([]string{"-workload", "trace1"}); err != nil {
		t.Fatal(err)
	}
	if !b.Selected() {
		t.Error("not Selected with -workload trace1")
	}
	if tr, err = b.Generate("dss"); err != nil {
		t.Fatal(err)
	}
	if tr.Name != "trace1" {
		t.Errorf("-workload trace1 generated %q", tr.Name)
	}
}

// TestFlagVocabulary pins every shared flag's name, default and usage
// string to testdata/flags.txt (one "-name<TAB>default<TAB>usage" line per
// flag, in fs.VisitAll's lexical order), so a rewrite of the binding
// cannot rename, re-default or re-document a flag unnoticed.
func TestFlagVocabulary(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	Bind(fs)
	var got strings.Builder
	fs.VisitAll(func(f *flag.Flag) {
		fmt.Fprintf(&got, "-%s\t%s\t%s\n", f.Name, f.DefValue, f.Usage)
	})
	want, err := os.ReadFile("testdata/flags.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("flag vocabulary drifted from testdata/flags.txt; now:\n%s", got.String())
	}
}

// TestEachFlagEdits sets every shared flag to a non-default value and
// checks that the resulting config is the raid5 default with exactly the
// edit that flag owns. Companion flags (-fail-disk, the -sick-* group,
// -fault-seed, -retries) ride with the flags that arm them, and a flag
// raid5 does not read rides with -cached or an -org that reads it. Every
// registered flag must appear first in some row.
func TestEachFlagEdits(t *testing.T) {
	ms := func(d sim.Time) sim.Time { return d * sim.Millisecond }
	rows := []struct {
		args []string
		edit func(c *core.Config)
	}{
		{[]string{"-org", "raid4"}, func(c *core.Config) { *c = core.DefaultConfig(array.OrgRAID4) }},
		{[]string{"-n", "4"}, func(c *core.Config) { c.N = 4 }},
		{[]string{"-su", "8"}, func(c *core.Config) { c.StripingUnit = 8 }},
		{[]string{"-sync", "si"}, func(c *core.Config) { c.Sync = array.SI }},
		{[]string{"-org", "pstripe", "-placement", "end"}, func(c *core.Config) {
			*c = core.DefaultConfig(array.OrgParityStriping)
			c.Placement = layout.EndPlacement
		}},
		{[]string{"-org", "pstripe", "-parity-unit", "32"}, func(c *core.Config) {
			*c = core.DefaultConfig(array.OrgParityStriping)
			c.ParityStripeUnit = 32
		}},
		{[]string{"-cached"}, func(c *core.Config) { c.Cached = true }},
		{[]string{"-cached", "-cache-mb", "8"}, func(c *core.Config) { c.Cached, c.CacheMB = true, 8 }},
		{[]string{"-cached", "-destage-sec", "0.5"}, func(c *core.Config) { c.Cached, c.DestagePeriod = true, ms(500) }},
		{[]string{"-cached", "-pure-lru"}, func(c *core.Config) { c.Cached, c.PureLRUWriteback = true, true }},
		{[]string{"-seed", "7"}, func(c *core.Config) { c.Seed = 7 }},
		{[]string{"-sched", "look"}, func(c *core.Config) { c.DiskSched = disk.LOOK }},
		{[]string{"-sync-spindles"}, func(c *core.Config) { c.SyncSpindles = true }},
		{[]string{"-workers", "3"}, func(c *core.Config) { c.Workers = 3 }},

		{[]string{"-spares", "2"}, func(c *core.Config) { c.Spares = 2 }},
		{[]string{"-fail-at", "30s", "-fail-disk", "3"}, func(c *core.Config) {
			c.Fault.DiskFails = append(c.Fault.DiskFails, fault.DiskFail{Disk: 3, At: 30 * sim.Second})
		}},
		{[]string{"-mttf-hours", "0.5"}, func(c *core.Config) { c.Fault.MTTF = 1800 * sim.Second }},
		{[]string{"-sector-error-rate", "0.01"}, func(c *core.Config) { c.Fault.SectorErrorRate = 0.01 }},
		{[]string{"-cached", "-cache-fail-at", "5s"}, func(c *core.Config) { c.Cached, c.Fault.CacheFailAt = true, 5*sim.Second }},
		{[]string{"-fault-seed", "11", "-mttf-hours", "0.5"}, func(c *core.Config) {
			c.Fault.Seed, c.Fault.MTTF = 11, 1800*sim.Second
		}},
		{[]string{"-fault-seed", "12", "-sector-error-rate", "0.01"}, func(c *core.Config) {
			c.Fault.Seed, c.Fault.SectorErrorRate = 12, 0.01
		}},
		{[]string{"-fault-seed", "13", "-sick-disk", "1", "-transient-rate", "0.2"}, func(c *core.Config) {
			c.Fault.Seed = 13
			c.Fault.SickDisks = append(c.Fault.SickDisks, fault.SickDisk{Disk: 1, TransientRate: 0.2})
		}},

		{[]string{"-obs-window", "250ms"}, func(c *core.Config) { c.Obs.Window = ms(250) }},
		{[]string{"-obs-trace", "64"}, func(c *core.Config) { c.Obs.TraceCap = 64 }},
		{[]string{"-trace-topk", "5"}, func(c *core.Config) { c.Obs.SpanTopK = 5 }},
		{[]string{"-self-metrics"}, func(c *core.Config) { c.SelfMetrics = true }},

		{[]string{"-deadline", "100ms"}, func(c *core.Config) { c.Robust.Deadline = ms(100) }},
		{[]string{"-batch-deadline", "2s"}, func(c *core.Config) { c.Robust.BatchDeadline = 2 * sim.Second }},
		{[]string{"-retries", "3", "-sick-disk", "1", "-transient-rate", "0.2"}, func(c *core.Config) {
			c.Robust.Retries = 3
			c.Fault.SickDisks = append(c.Fault.SickDisks, fault.SickDisk{Disk: 1, TransientRate: 0.2})
		}},
		{[]string{"-org", "mirror", "-hedge-after", "20ms"}, func(c *core.Config) {
			*c = core.DefaultConfig(array.OrgMirror)
			c.Robust.HedgeAfter = ms(20)
		}},
		{[]string{"-org", "mirror", "-hedge-quantile", "0.95"}, func(c *core.Config) {
			*c = core.DefaultConfig(array.OrgMirror)
			c.Robust.HedgeQuantile = 0.95
		}},
		{[]string{"-shed-queue", "12"}, func(c *core.Config) { c.Robust.ShedQueue = 12 }},

		{[]string{"-sick-disk", "2", "-sick-at", "1s", "-sick-until", "9s", "-slow-factor", "4",
			"-transient-rate", "0.1", "-hang-every", "3s", "-hang-for", "50ms"}, func(c *core.Config) {
			c.Fault.SickDisks = append(c.Fault.SickDisks, fault.SickDisk{
				Disk: 2, At: sim.Second, Until: 9 * sim.Second, SlowFactor: 4,
				TransientRate: 0.1, HangEvery: 3 * sim.Second, HangFor: ms(50),
			})
		}},
		{[]string{"-sick-disk", "0"}, func(c *core.Config) {
			c.Fault.SickDisks = append(c.Fault.SickDisks, fault.SickDisk{})
		}},
	}
	covered := map[string]bool{}
	for _, r := range rows {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		b := Bind(fs)
		if err := fs.Parse(r.args); err != nil {
			t.Fatalf("parse %v: %v", r.args, err)
		}
		fs.Visit(func(f *flag.Flag) { covered[f.Name] = true })
		got, err := b.Config()
		if err != nil {
			t.Errorf("%v: %v", r.args, err)
			continue
		}
		want := core.DefaultConfig(array.OrgRAID5)
		r.edit(&want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v:\n got %+v\nwant %+v", r.args, got, want)
		}
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	Bind(fs)
	fs.VisitAll(func(f *flag.Flag) {
		if !covered[f.Name] {
			t.Errorf("no row sets -%s", f.Name)
		}
	})
}
