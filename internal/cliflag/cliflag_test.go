package cliflag

import (
	"flag"
	"testing"

	"raidsim/internal/array"
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

// TestApplyOverlay: Apply must touch only explicitly-set flags, so a
// caller's base config survives the overlay.
func TestApplyOverlay(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	b := Bind(fs)
	if err := fs.Parse([]string{"-n", "4"}); err != nil {
		t.Fatal(err)
	}
	base, err := b.Config()
	if err != nil {
		t.Fatal(err)
	}
	base.Seed = 99
	base.CacheMB = 64
	if err := b.Apply(&base); err != nil {
		t.Fatal(err)
	}
	if base.N != 4 {
		t.Errorf("explicit -n not applied: %d", base.N)
	}
	if base.Seed != 99 || base.CacheMB != 64 {
		t.Errorf("overlay clobbered unset fields: seed=%d cacheMB=%d", base.Seed, base.CacheMB)
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
	for _, args := range [][]string{
		{"-org", "raid9"},
		{"-sync", "nope"},
		{"-placement", "sideways"},
		{"-sched", "elevator-ish"},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		b := Bind(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatalf("parse %v: %v", args, err)
		}
		if _, err := b.Config(); err == nil {
			t.Errorf("args %v: want error", args)
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
