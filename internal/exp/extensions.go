package exp

import (
	"fmt"

	"raidsim/internal/array"
	"raidsim/internal/fault"
	"raidsim/internal/reliability"
	"raidsim/internal/report"
	"raidsim/internal/sim"
)

func init() {
	register(Experiment{ID: "ablate-destage", Title: "Ablation: periodic destage vs pure LRU write-back (section 3.4)", Figure: "ablation (section 3.4)",
		Knobs: "writeback: periodic/pure-LRU; org: cached orgs", Run: ablateDestage})
	register(Experiment{ID: "ablate-pstripe", Title: "Ablation: fine-grained parity striping (section 4.2.1 future work)", Figure: "ablation (section 4.2.1)",
		Knobs: "parity stripe unit: classic vs fine-grained", Run: ablatePStripe})
	register(Experiment{ID: "ablate-sync-destage", Title: "Ablation: destage period", Figure: "ablation (section 3.4)",
		Knobs: "destage period: 0.25..8 s", Run: ablateDestagePeriod})
	register(Experiment{ID: "ext-rebuild", Title: "Extension: degraded-mode and rebuild performance", Figure: "extension",
		Knobs: "mode: normal/degraded/rebuilding; rebuild pause", Run: extRebuild})
	register(Experiment{ID: "ext-mttdl", Title: "Extension: MTTDL of the organizations (intro footnote)", Figure: "extension (intro footnote)",
		Knobs: "org: mirror/parity; Monte-Carlo lifetimes", Run: extMTTDL})
}

// ablateDestage compares the periodic destage process against plain LRU
// write-back (dirty blocks written only on eviction). The paper reports
// the periodic policy "always performs better for all organizations".
func ablateDestage(ctx *Context) error {
	orgs := []array.Org{array.OrgBase, array.OrgMirror, array.OrgRAID5, array.OrgParityStriping}
	sizes := []int{8, 32, 128}
	for _, name := range ctx.TraceNames() {
		tr := ctx.Trace(name, 1)
		t := &report.Table{
			Title:   fmt.Sprintf("Ablation (%s): periodic destage vs pure LRU write-back (resp ms)", name),
			Columns: []string{"org", "cacheMB", "periodic", "pure-LRU", "LRU/periodic"},
		}
		for _, org := range orgs {
			for _, mb := range sizes {
				var jobs []job
				for _, pure := range []bool{false, true} {
					cfg := ctx.BaseConfig(name)
					cfg.Org = org
					cfg.Cached = true
					cfg.CacheMB = mb
					cfg.PureLRUWriteback = pure
					jobs = append(jobs, job{cfg: cfg, tr: tr})
				}
				res, errs := runAll(jobs)
				noteErrors(t, errs)
				p, l := meanOrNaN(res[0]), meanOrNaN(res[1])
				t.AddRow(org.String(), fmt.Sprintf("%d", mb),
					fmt.Sprintf("%.2f", p), fmt.Sprintf("%.2f", l), fmt.Sprintf("%.3f", l/p))
			}
		}
		if err := ctx.Render(t); err != nil {
			return err
		}
	}
	return nil
}

// ablatePStripe evaluates the paper's proposed fix for Parity Striping's
// correlated-load problem: striping the parity at a finer grain so a hot
// data area spreads its parity updates over all the other disks.
func ablatePStripe(ctx *Context) error {
	units := []int64{0, 4096, 1024, 256, 64} // 0 = classic whole-area parity
	for _, name := range ctx.TraceNames() {
		tr := ctx.Trace(name, 1)
		t := &report.Table{
			Title:   fmt.Sprintf("Ablation (%s): parity striping sub-unit (non-cached, N=10)", name),
			Columns: []string{"parity unit (blocks)", "resp (ms)", "max disk util"},
		}
		var jobs []job
		for _, u := range units {
			cfg := ctx.BaseConfig(name)
			cfg.Org = array.OrgParityStriping
			cfg.ParityStripeUnit = u
			jobs = append(jobs, job{cfg: cfg, tr: tr})
		}
		res, errs := runAll(jobs)
		noteErrors(t, errs)
		for i, u := range units {
			label := "classic"
			if u > 0 {
				label = fmt.Sprintf("%d", u)
			}
			var umax float64
			if res[i] != nil {
				for _, x := range res[i].DiskUtil {
					if x > umax {
						umax = x
					}
				}
			}
			t.AddRow(label, fmt.Sprintf("%.2f", meanOrNaN(res[i])), fmt.Sprintf("%.3f", umax))
		}
		if err := ctx.Render(t); err != nil {
			return err
		}
	}
	return nil
}

// ablateDestagePeriod sweeps the destage period for cached RAID5: short
// periods raise the write traffic, long ones raise the chance a miss
// waits on a dirty victim (section 3.4's tradeoff).
func ablateDestagePeriod(ctx *Context) error {
	periods := []sim.Time{sim.Second / 4, sim.Second, 4 * sim.Second, 16 * sim.Second}
	for _, name := range ctx.TraceNames() {
		tr := ctx.Trace(name, 1)
		t := &report.Table{
			Title:   fmt.Sprintf("Ablation (%s): destage period, cached RAID5 (16MB)", name),
			Columns: []string{"period (s)", "resp (ms)", "dirty evictions"},
		}
		var jobs []job
		for _, p := range periods {
			cfg := ctx.BaseConfig(name)
			cfg.Org = array.OrgRAID5
			cfg.Cached = true
			cfg.DestagePeriod = p
			jobs = append(jobs, job{cfg: cfg, tr: tr})
		}
		res, errs := runAll(jobs)
		noteErrors(t, errs)
		for i, p := range periods {
			var de int64
			if res[i] != nil {
				de = res[i].Cache.DirtyEvictions
			}
			t.AddRow(fmt.Sprintf("%.2f", float64(p)/float64(sim.Second)),
				fmt.Sprintf("%.2f", meanOrNaN(res[i])), fmt.Sprintf("%d", de))
		}
		if err := ctx.Render(t); err != nil {
			return err
		}
	}
	return nil
}

// extRebuild measures a RAID5 array healthy, degraded, and during
// rebuild, under the Trace 2 load. Disk 0 is failed from time zero; the
// rebuilding run adds a hot spare, so the throttled sweep races the
// foreground load until the spare is rebuilt.
func extRebuild(ctx *Context) error {
	tr := ctx.Trace("trace2", 1)
	t := &report.Table{
		Title:   "Extension: RAID5 (N=10) degraded and rebuilding (Trace 2 load)",
		Columns: []string{"mode", "resp (ms)", "resp while degraded (ms)", "rebuild (min)"},
	}
	modes := []string{"healthy", "degraded", "rebuilding"}
	var jobs []job
	for _, m := range modes {
		cfg := ctx.BaseConfig("trace2")
		cfg.Org = array.OrgRAID5
		cfg.N = 10
		cfg.StripingUnit = 1
		cfg.RebuildPause = 20 * sim.Millisecond
		if m != "healthy" {
			cfg.Fault = fault.Config{DiskFails: []fault.DiskFail{{Disk: 0, At: 0}}}
		}
		if m == "rebuilding" {
			cfg.Spares = 1
		}
		jobs = append(jobs, job{cfg: cfg, tr: tr})
	}
	res, errs := runAll(jobs)
	noteErrors(t, errs)
	for i, m := range modes {
		r := res[i]
		degr, reb := "-", "-"
		if r != nil && r.DegradedResp.N() > 0 {
			degr = fmt.Sprintf("%.2f", r.DegradedResp.Mean())
		}
		if r != nil && r.Fault.Rebuilds > 0 {
			reb = fmt.Sprintf("%.1f", float64(r.Fault.RebuildTime)/float64(60*sim.Second))
		}
		t.AddRow(m, fmt.Sprintf("%.2f", meanOrNaN(r)), degr, reb)
	}
	t.AddNote("degraded = responses completed while a slot was unreadable (disk 0 failed at t=0)")
	return ctx.Render(t)
}

// extMTTDL reproduces the introduction's reliability arithmetic.
func extMTTDL(ctx *Context) error {
	p := reliability.Params{DiskMTTFHours: 100000, MTTRHours: 24}
	t := &report.Table{
		Title:   "Extension: MTTDL (disk MTTF 100,000 h, MTTR 24 h)",
		Columns: []string{"organization", "disks", "MTTDL (days)", "P(loss in 1y)"},
	}
	add := func(name string, disks int, mttdl float64) {
		t.AddRow(name, fmt.Sprintf("%d", disks),
			fmt.Sprintf("%.0f", reliability.HoursToDays(mttdl)),
			fmt.Sprintf("%.4f", reliability.DataLossProbability(mttdl, 365*24)))
	}
	add("non-redundant farm (paper footnote)", 150, reliability.FarmMTTDLHours(p, 150))
	add("base 130 disks", 130, reliability.FarmMTTDLHours(p, 130))
	add("mirror 130 pairs", 260, reliability.MirrorFarmMTTDLHours(p, 130))
	add("raid5 13 arrays N=10", 143, reliability.ArrayFarmMTTDLHours(p, 10, 13))
	add("raid5 26 arrays N=5", 156, reliability.ArrayFarmMTTDLHours(p, 5, 26))
	add("raid5 7 arrays N=20", 147, reliability.ArrayFarmMTTDLHours(p, 20, 7))
	t.AddNote("footnote check: 150 disks -> MTTDL %.1f days (< 28 days as the paper states)",
		reliability.HoursToDays(reliability.FarmMTTDLHours(p, 150)))
	return ctx.Render(t)
}
