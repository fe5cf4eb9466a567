package core

import (
	"fmt"
	"strings"
	"testing"

	"raidsim/internal/array"
	"raidsim/internal/fault"
	"raidsim/internal/layout"
	"raidsim/internal/sim"
	"raidsim/internal/trace"
	"raidsim/internal/workload"
)

var allOrgs = []array.Org{
	array.OrgBase, array.OrgMirror, array.OrgRAID10, array.OrgRAID5, array.OrgRAID4,
	array.OrgParityStriping, array.OrgRAID0, array.OrgRAID3, array.OrgParityLog,
}

// settingRows sets each field Unread checks to a value that is neither
// zero nor DefaultConfig's, and names the group that reads it (cached:
// read only when Cached). ctx is what the setting needs to act on a
// small trace: both the plain run and the set run get it.
var settingRows = []struct {
	field    string
	group    array.Setting
	cached   bool
	ctx, set func(*Config)
}{
	{"StripingUnit", array.ReadsStripingUnit, false, nil, func(c *Config) { c.StripingUnit = 4 }},
	{"Placement", array.ReadsParityLayout, false, nil, func(c *Config) { c.Placement = layout.EndPlacement }},
	{"ParityStripeUnit", array.ReadsParityLayout, false, nil, func(c *Config) { c.ParityStripeUnit = 8 }},
	{"Sync", array.ReadsSync, false, nil, func(c *Config) { c.Sync = array.RF }},
	{"SyncSpindles", array.ReadsSpindleSync, false, nil, func(c *Config) { c.SyncSpindles = true }},
	{"Robust.HedgeAfter", array.ReadsHedging, false, sickDisk, func(c *Config) { c.Robust.HedgeAfter = 10 * sim.Millisecond }},
	{"Robust.HedgeQuantile", array.ReadsHedging, false, sickDisk, func(c *Config) { c.Robust.HedgeQuantile = 0.5 }},
	{"Cached", array.ReadsCache, false, nil, func(c *Config) { c.Cached = !c.Cached }},
	{"CacheMB", array.ReadsCache, true, smallCache, func(c *Config) { c.CacheMB = 2 }},
	{"DestagePeriod", array.ReadsCache, true, smallCache, func(c *Config) { c.DestagePeriod = 5 * sim.Second }},
	{"PureLRUWriteback", array.ReadsCache, true, smallCache, func(c *Config) { c.PureLRUWriteback = true }},
	{"Fault.CacheFailAt", array.ReadsCache, true, smallCache, func(c *Config) { c.Fault.CacheFailAt = 10 * sim.Second }},
	{"Fault.DiskFails", array.ReadsFaults, false, nil, func(c *Config) { c.Fault.DiskFails = []fault.DiskFail{{Disk: 1, At: 10 * sim.Second}} }},
	{"Fault.SickDisks", array.ReadsFaults, false, nil, func(c *Config) { c.Fault.SickDisks = []fault.SickDisk{{Disk: 1, SlowFactor: 4}} }},
	{"Fault.MTTF", array.ReadsFaults, false, nil, func(c *Config) { c.Fault.MTTF = 60 * sim.Second }},
	{"Fault.SectorErrorRate", array.ReadsFaults, false, nil, func(c *Config) { c.Fault.SectorErrorRate = 0.05 }},
	{"Fault.Seed", array.ReadsFaults, false, func(c *Config) { c.Fault.SectorErrorRate = 0.05 }, func(c *Config) { c.Fault.Seed = 3 }},
	{"Spares", array.ReadsFaults, false, failDisk, func(c *Config) { c.Spares = 1 }},
	{"RebuildChunk", array.ReadsRebuild, false, rebuild, func(c *Config) { c.RebuildChunk = 8 }},
	{"RebuildPause", array.ReadsRebuild, false, rebuild, func(c *Config) { c.RebuildPause = 20 * sim.Millisecond }},
}

// sickDisk slows drive 1 over the whole run, with deadlines armed so
// the robustness layer reports either way and only hedging differs.
func sickDisk(c *Config) {
	c.Fault.SickDisks = []fault.SickDisk{{Disk: 1, SlowFactor: 8}}
	c.Robust.Deadline = 50 * sim.Millisecond
}

// smallCache is a 1 MB cache, which the test trace overfills.
func smallCache(c *Config) { c.Cached, c.CacheMB = true, 1 }

func failDisk(c *Config) { c.Fault.DiskFails = []fault.DiskFail{{Disk: 1, At: 10 * sim.Second}} }

func rebuild(c *Config) { failDisk(c); c.Spares = 1 }

// TestValidateRejectsUnreadSettings sets each field on each organization,
// uncached and cached, and checks that Validate rejects exactly the ones
// the table marks unread, naming the organization and the field.
func TestValidateRejectsUnreadSettings(t *testing.T) {
	for _, org := range allOrgs {
		for _, cached := range []bool{false, true} {
			if cached && !org.Reads(array.ReadsCache) {
				continue // the Cached row covers it
			}
			for _, row := range settingRows {
				cfg := DefaultConfig(org)
				cfg.Cached = cached || cfg.Cached
				row.set(&cfg)
				err := cfg.Validate()
				read := org.Reads(row.group) && (!row.cached || cfg.Cached)
				switch {
				case read && err != nil:
					t.Errorf("%v cached=%v %s: rejected: %v", org, cached, row.field, err)
				case !read && err == nil:
					t.Errorf("%v cached=%v %s: accepted, but %v does not read it", org, cached, row.field, org)
				case !read && (!strings.Contains(err.Error(), org.String()) || !strings.Contains(err.Error(), row.field)):
					t.Errorf("%v cached=%v %s: error %q does not name the organization and the field", org, cached, row.field, err)
				}
			}
		}
	}
	// Both "not set" values pass: a literal's zero and DefaultConfig's.
	lit := Config{Org: array.OrgBase, DataDisks: 10, N: 10, Spec: DefaultConfig(array.OrgBase).Spec, Sync: array.DF, CacheMB: 16}
	if err := lit.Validate(); err != nil {
		t.Errorf("literal with default values rejected: %v", err)
	}
	// Unread against DefaultConfig also catches a zero value it sets.
	si := DefaultConfig(array.OrgRAID4)
	si.Sync = array.SI
	if err := si.Validate(); err != nil {
		t.Errorf("zero Sync rejected by Validate: %v", err)
	}
	if err := si.Unread(DefaultConfig(array.OrgRAID4)); err == nil || !strings.Contains(err.Error(), "raid4 does not read Sync") {
		t.Errorf("Unread(DefaultConfig) on raid4 with SI: %v", err)
	}
}

// TestReadSettingsAct is the converse: each setting the table marks
// read changes the result, given the context that lets it act. Together
// with TestValidateRejectsUnreadSettings this holds the table to the
// simulator's behaviour in both directions.
func TestReadSettingsAct(t *testing.T) {
	p := workload.Trace2Profile().Scaled(0.01)
	tr, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, org := range allOrgs {
		for _, cached := range []bool{false, true} {
			for _, row := range settingRows {
				cfg := DefaultConfig(org)
				cfg.Cached = cached || cfg.Cached
				if row.ctx != nil {
					row.ctx(&cfg)
				}
				if cfg.Validate() != nil {
					continue // the context itself is unread here
				}
				set := cfg
				row.set(&set)
				if set.Validate() != nil || org.Cache() == array.CacheRequired && row.field == "Cached" {
					continue
				}
				if a, b := resultPrint(t, cfg, tr), resultPrint(t, set, tr); a == b {
					t.Errorf("%v cached=%v: %s changed nothing: %s", org, cfg.Cached, row.field, a)
				}
			}
		}
	}
}

func resultPrint(t *testing.T, cfg Config, tr *trace.Trace) string {
	t.Helper()
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatalf("%v: %v", cfg.Org, err)
	}
	return fmt.Sprintf("ev=%d resp=%x max=%x acc=%v hedges=%d", res.Events, res.Resp.Mean(), res.Resp.Max(), res.DiskAccesses, res.Robust.Hedges)
}

// TestPhysicalDisksMatchSimulated: the reported drive count is the
// number of drives Run simulates, including arrays wider than the data
// (N > DataDisks) and a 1-disk tail widened to 2.
func TestPhysicalDisksMatchSimulated(t *testing.T) {
	traces := map[int]*trace.Trace{}
	for _, c := range []struct {
		org  array.Org
		d, n int
	}{
		{array.OrgMirror, 10, 20}, {array.OrgBase, 10, 20}, {array.OrgRAID10, 10, 20},
		{array.OrgRAID5, 11, 10}, {array.OrgMirror, 11, 10}, {array.OrgRAID5, 21, 10},
	} {
		tr := traces[c.d]
		if tr == nil {
			p := workload.Trace2Profile().Scaled(0.01)
			p.NumDisks = c.d
			var err error
			if tr, err = workload.Generate(p); err != nil {
				t.Fatal(err)
			}
			traces[c.d] = tr
		}
		cfg := DefaultConfig(c.org)
		cfg.DataDisks, cfg.N = c.d, c.n
		res, err := Run(cfg, tr)
		if err != nil {
			t.Fatalf("%v D=%d N=%d: %v", c.org, c.d, c.n, err)
		}
		if got, want := cfg.PhysicalDisks(), len(res.DiskAccesses); got != want {
			t.Errorf("%v D=%d N=%d: PhysicalDisks %d, simulated %d", c.org, c.d, c.n, got, want)
		}
	}
}
