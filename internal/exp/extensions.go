package exp

import (
	"fmt"
	"sort"

	"raidsim/internal/array"
	"raidsim/internal/core"
	"raidsim/internal/fault"
	"raidsim/internal/geom"
	"raidsim/internal/layout"
	"raidsim/internal/model"
	"raidsim/internal/obs"
	"raidsim/internal/reliability"
	"raidsim/internal/report"
	"raidsim/internal/sim"
	"raidsim/internal/trace"
	"raidsim/internal/workload"
)

func init() {
	register(Experiment{ID: "ext-rebuild", Title: "Extension: degraded-mode and rebuild performance", Figure: "extension",
		Knobs: "mode: normal/degraded/rebuilding; rebuild pause", Run: extRebuild})
	register(Experiment{ID: "ext-mttdl", Title: "Extension: MTTDL of the organizations (intro footnote)", Figure: "extension (intro footnote)",
		Knobs: "org: mirror/parity; Monte-Carlo lifetimes", Run: extMTTDL})
	register(Experiment{ID: "ext-model", Title: "Extension: analytic models vs simulation", Figure: "extension (section 4.2.3)",
		Knobs: "model: zero-load analytic vs simulated; placement rule", Run: extModel})
	register(Experiment{ID: "ext-closedloop", Title: "Extension: closed-loop throughput vs multiprogramming level", Figure: "extension",
		Knobs: "MPL: 1..32; org: base/mirror/raid5/pstripe", Run: extClosedLoop})
	register(Experiment{ID: "ext-taxonomy", Title: "Extension: RAID taxonomy under OLTP vs DSS load (Chen et al.)", Figure: "extension (related work)",
		Knobs: "org: raid0/raid3/raid5/...; workload: OLTP vs DSS", Run: extTaxonomy})
	register(Experiment{ID: "ext-paritylog", Title: "Extension: parity logging vs RAID5 (Stodolsky et al.)", Figure: "extension (related work)",
		Knobs: "org: plog vs raid5/mirror; log region size", Run: extParityLog})
	register(Experiment{ID: "ext-raid10", Title: "Extension: RAID1/0 striped mirror pairs vs Mirror and RAID5", Figure: "extension",
		Knobs: "org: raid10 vs mirror/raid5; striping unit", Run: extRAID10})
	register(Experiment{ID: "ext-latency", Title: "Extension: per-stage latency attribution across organizations", Figure: "extension",
		Knobs: "org: all; stage breakdown columns", Run: extLatency})
	register(Experiment{ID: "ext-slo", Title: "Extension: deadline misses under a sick disk, with and without the robustness layer", Figure: "extension",
		Knobs: "org: raid10, raid5+cache; gold deadline sweep; sick disk (slow, transient errors); retries/hedging on vs off", Run: extSLO})
	register(Experiment{ID: "ext-diurnal", Title: "Extension: multi-client diurnal workload — per-class service across organizations", Figure: "extension",
		Knobs: "workload: built-in diurnal spec (OLTP gold + scan batch + backup batch); org: mirror, raid10, raid5+cache; gold/batch deadlines on", Run: extDiurnal})
	register(Experiment{ID: "ext-timeseries", Title: "Extension: windowed time series — destage bursts and a mid-run rebuild", Figure: "extension (observability)",
		Knobs: "cached RAID5 on trace1; disk 0 fails at T/3 with a hot spare; windowed latency/util/destage/rebuild series", Run: extTimeseries})
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

// extModel compares the closed-form zero-load estimates (Gray et al.
// style) and the section 4.2.3 parity-placement rule against simulation.
func extModel(ctx *Context) error {
	dev, err := model.NewDevice(geom.Default())
	if err != nil {
		return err
	}
	// Zero-load response: simulate at a crawl (speed 0.1) so queueing is
	// negligible and compare to the analytic minimum.
	name := "trace2"
	tr := ctx.Trace(name, 0.1)
	t := &report.Table{
		Title:   "Extension: analytic zero-load response vs simulation at light load (ms)",
		Columns: []string{"org", "model read", "model write", "model mean", "sim mean (speed 0.1)"},
	}
	prof := ctx.Profile(name)
	var jobs []job
	orgs := []array.Org{array.OrgBase, array.OrgMirror, array.OrgRAID5, array.OrgParityStriping}
	for _, org := range orgs {
		cfg := ctx.BaseConfig(name)
		cfg.Org = org
		jobs = append(jobs, job{cfg: cfg, tr: tr})
	}
	res, errs := runAll(jobs)
	noteErrors(t, errs)
	for i, org := range orgs {
		r, _ := model.ZeroLoadResponse(dev, org, false)
		w, _ := model.ZeroLoadResponse(dev, org, true)
		m, _ := model.ZeroLoadMean(dev, org, prof.WriteFraction)
		t.AddRow(org.String(),
			fmt.Sprintf("%.2f", r), fmt.Sprintf("%.2f", w), fmt.Sprintf("%.2f", m),
			fmt.Sprintf("%.2f", meanOrNaN(res[i])))
	}
	t.AddNote("the simulation includes skew and residual queueing, so it sits above the zero-load floor")
	if err := ctx.Render(t); err != nil {
		return err
	}

	// The placement rule, checked against simulation (Figure 9's data).
	pt := &report.Table{
		Title:   "Extension: section 4.2.3 parity placement rule vs simulation",
		Columns: []string{"trace", "N", "rule says", "sim middle (ms)", "sim end (ms)", "sim agrees"},
	}
	for _, tn := range ctx.TraceNames() {
		prof := ctx.Profile(tn)
		trn := ctx.Trace(tn, 1)
		for _, n := range []int{5, 10, 15, 20} {
			var pj []job
			for _, pl := range []int{0, 1} {
				cfg := ctx.BaseConfig(tn)
				cfg.Org = array.OrgParityStriping
				cfg.N = n
				cfg.Placement = placementOf(pl)
				pj = append(pj, job{cfg: cfg, tr: trn})
			}
			r, errs := runAll(pj)
			noteErrors(pt, errs)
			mid, end := meanOrNaN(r[0]), meanOrNaN(r[1])
			rule := model.RecommendPlacement(n, prof.WriteFraction)
			simPick := placementOf(0)
			if end < mid {
				simPick = placementOf(1)
			}
			pt.AddRow(tn, fmt.Sprintf("%d", n), rule.String(),
				fmt.Sprintf("%.2f", mid), fmt.Sprintf("%.2f", end),
				fmt.Sprintf("%v", rule == simPick))
		}
	}
	pt.AddNote("the paper found the rule holds for Trace 1 with the cutoff nearer N=10, and breaks for Trace 2 (non-uniform access)")
	return ctx.Render(pt)
}

func placementOf(i int) layout.Placement {
	if i == 1 {
		return layout.EndPlacement
	}
	return layout.MiddlePlacement
}

// extClosedLoop sweeps the multiprogramming level, reporting the
// throughput/response saturation curves per organization.
func extClosedLoop(ctx *Context) error {
	name := "trace2"
	tr := ctx.Trace(name, 1)
	mpls := []int{1, 2, 4, 8, 16, 32}
	tp := &report.Figure{
		Title:  "Extension: closed-loop throughput vs MPL (per array, req/s)",
		XLabel: "MPL",
		YLabel: "req/s",
	}
	rt := &report.Figure{
		Title:  "Extension: closed-loop response vs MPL",
		XLabel: "MPL",
		YLabel: "response (ms)",
	}
	for _, m := range mpls {
		tp.XTicks = append(tp.XTicks, fmt.Sprintf("%d", m))
		rt.XTicks = append(rt.XTicks, fmt.Sprintf("%d", m))
	}
	for _, org := range []array.Org{array.OrgBase, array.OrgMirror, array.OrgRAID5} {
		var tps, rts []float64
		for _, m := range mpls {
			cfg := ctx.BaseConfig(name)
			cfg.Org = org
			res, err := core.RunClosedLoop(cfg, tr, core.ClosedLoopConfig{MPL: m})
			if err != nil {
				return err
			}
			tps = append(tps, res.Throughput())
			rts = append(rts, res.Resp.Mean())
		}
		tp.Add(org.String(), tps...)
		rt.Add(org.String(), rts...)
	}
	if err := ctx.Render(tp); err != nil {
		return err
	}
	return ctx.Render(rt)
}

// extTaxonomy compares the full organization taxonomy — including the
// RAID0 and RAID3 comparators from the related work — under the paper's
// OLTP load and under a large-transfer DSS load. The expected reversal:
// RAID3 (all arms per request) is hopeless for small random I/O but
// competitive for long scans; RAID0 tracks Base plus striping's
// balancing; the parity organizations pay their write penalty only where
// writes and small requests dominate.
func extTaxonomy(ctx *Context) error {
	dssProf := workload.DSSProfile()
	if ctx.opts.Scale < 1 {
		dssProf = dssProf.Scaled(ctx.opts.Scale * 5) // DSS is small; shrink less
	}
	dss, err := workload.Generate(dssProf)
	if err != nil {
		return err
	}
	oltp := ctx.Trace("trace2", 1)

	t := &report.Table{
		Title:   "Extension: organization taxonomy, OLTP (trace2) vs DSS scans (resp ms)",
		Columns: []string{"org", "drives", "oltp resp", "dss resp"},
	}
	orgs := []array.Org{array.OrgBase, array.OrgRAID0, array.OrgMirror, array.OrgRAID3, array.OrgRAID5, array.OrgParityStriping}
	var jobs []job
	for _, org := range orgs {
		cfg := ctx.BaseConfig("trace2")
		cfg.Org = org
		jobs = append(jobs, job{cfg: cfg, tr: oltp})
		cfgD := cfg
		cfgD.StripingUnit = 4 // a sensible scan-friendly unit for the striped orgs
		jobs = append(jobs, job{cfg: cfgD, tr: dss})
	}
	res, errs := runAll(jobs)
	noteErrors(t, errs)
	for i, org := range orgs {
		cfg := ctx.BaseConfig("trace2")
		cfg.Org = org
		t.AddRow(org.String(), fmt.Sprintf("%d", cfg.PhysicalDisks()),
			fmt.Sprintf("%.2f", meanOrNaN(res[2*i])),
			fmt.Sprintf("%.2f", meanOrNaN(res[2*i+1])))
	}
	t.AddNote("DSS requests average ~%d blocks; striped organizations move them with all arms in parallel", int(dssProf.MeanMultiBlocks))
	return ctx.Render(t)
}

// extParityLog compares the parity logging organization — parity-update
// images appended to per-disk logs in large sequential writes, folded
// into parity in the background — against the paper's organizations,
// non-cached. The expected shape (from the parity logging paper the
// related work cites): small writes approach mirrored-disk cost because
// the second RMW disappears from the foreground.
func extParityLog(ctx *Context) error {
	orgs := []array.Org{array.OrgBase, array.OrgMirror, array.OrgRAID5, array.OrgParityLog}
	for _, name := range ctx.TraceNames() {
		tr := ctx.Trace(name, 1)
		t := &report.Table{
			Title:   fmt.Sprintf("Extension (%s): parity logging vs the paper's organizations (non-cached)", name),
			Columns: []string{"org", "resp (ms)", "write resp (ms)"},
		}
		var jobs []job
		for _, org := range orgs {
			cfg := ctx.BaseConfig(name)
			cfg.Org = org
			jobs = append(jobs, job{cfg: cfg, tr: tr})
		}
		res, errs := runAll(jobs)
		noteErrors(t, errs)
		for i, org := range orgs {
			w := 0.0
			if res[i] != nil {
				w = res[i].WriteResp.Mean()
			}
			t.AddRow(org.String(), fmt.Sprintf("%.2f", meanOrNaN(res[i])), fmt.Sprintf("%.2f", w))
		}
		if err := ctx.Render(t); err != nil {
			return err
		}
	}
	return nil
}

// extRAID10 evaluates the RAID1/0 extension — RAID0 striping over mirror
// pairs, built by composing the mirror scheme with a striped layout —
// against whole-disk mirroring and RAID5, healthy and degraded. Expected
// shape: healthy RAID1/0 tracks Mirror (same redundancy, same shortest-
// seek read routing) but spreads a skewed workload over all pairs the way
// RAID0 does; degraded, both mirrored organizations lose only one pair's
// second arm, where RAID5 pays stripe-wide reconstruction reads.
func extRAID10(ctx *Context) error {
	orgs := []array.Org{array.OrgMirror, array.OrgRAID10, array.OrgRAID5}
	for _, name := range ctx.TraceNames() {
		tr := ctx.Trace(name, 1)
		t := &report.Table{
			Title:   fmt.Sprintf("Extension (%s): RAID1/0 vs Mirror and RAID5, healthy and degraded", name),
			Columns: []string{"org", "drives", "resp (ms)", "read", "write", "degr resp (ms)", "degr reqs"},
		}
		var jobs []job
		for _, org := range orgs {
			cfg := ctx.BaseConfig(name)
			cfg.Org = org
			if org == array.OrgRAID10 {
				cfg.StripingUnit = 4
			}
			jobs = append(jobs, job{cfg: cfg, tr: tr})
			// Degraded run: kill one drive a quarter into the trace, with a
			// hot spare so the rebuild sweep's interference is included.
			cfgF := cfg
			cfgF.Spares = 1
			cfgF.Fault = fault.Config{DiskFails: []fault.DiskFail{{Disk: 0, At: tr.Duration() / 4}}}
			jobs = append(jobs, job{cfg: cfgF, tr: tr})
		}
		res, errs := runAll(jobs)
		noteErrors(t, errs)
		for i, org := range orgs {
			h, d := res[2*i], res[2*i+1]
			cfg := ctx.BaseConfig(name)
			cfg.Org = org
			degr, nd := 0.0, int64(0)
			if d != nil {
				degr, nd = d.DegradedResp.Mean(), d.DegradedResp.N()
			}
			hr, hw := 0.0, 0.0
			if h != nil {
				hr, hw = h.ReadResp.Mean(), h.WriteResp.Mean()
			}
			t.AddRow(org.String(), fmt.Sprintf("%d", cfg.PhysicalDisks()),
				fmt.Sprintf("%.2f", meanOrNaN(h)),
				fmt.Sprintf("%.2f", hr), fmt.Sprintf("%.2f", hw),
				fmt.Sprintf("%.2f", degr), fmt.Sprintf("%d", nd))
		}
		t.AddNote("degraded = responses completed while a slot was unreadable (failure at t/4, one hot spare)")
		if err := ctx.Render(t); err != nil {
			return err
		}
	}
	return nil
}

// extLatency attributes each organization's disk-side time to pipeline
// stages: queue wait, seek + rotational positioning, media transfer, the
// full rotations the sync policy holds waiting for parity inputs, and
// foreground stalls making cache room. It explains the figures' response
// gaps — e.g. where RAID5's write penalty actually goes (queueing vs held
// rotations) and what the NV cache buys.
func extLatency(ctx *Context) error {
	type point struct {
		label  string
		org    array.Org
		cached bool
	}
	points := []point{
		{"base", array.OrgBase, false},
		{"mirror", array.OrgMirror, false},
		{"raid10", array.OrgRAID10, false},
		{"raid5", array.OrgRAID5, false},
		{"pstripe", array.OrgParityStriping, false},
		{"raid5+cache", array.OrgRAID5, true},
		{"raid4+cache", array.OrgRAID4, true},
	}
	for _, name := range ctx.TraceNames() {
		tr := ctx.Trace(name, 1)
		t := &report.Table{
			Title:   fmt.Sprintf("Extension (%s): where the disk time goes, by pipeline stage (%% of attributed disk-seconds)", name),
			Columns: []string{"org", "resp (ms)", "disk-s", "queue", "seek+rot", "xfer", "parity sync", "destage stall"},
		}
		var jobs []job
		for _, p := range points {
			cfg := ctx.BaseConfig(name)
			cfg.Org = p.org
			cfg.Cached = p.cached
			jobs = append(jobs, job{cfg: cfg, tr: tr})
		}
		res, errs := runAll(jobs)
		noteErrors(t, errs)
		for i, p := range points {
			r := res[i]
			if r == nil {
				t.AddRow(p.label, "-", "-", "-", "-", "-", "-", "-")
				continue
			}
			s := r.Stages
			tot := s.Total()
			pct := func(ms float64) string {
				if tot == 0 {
					return "-"
				}
				return fmt.Sprintf("%.1f%%", 100*ms/tot)
			}
			t.AddRow(p.label,
				fmt.Sprintf("%.2f", r.MeanResponseMS()),
				fmt.Sprintf("%.1f", tot/1e3),
				pct(s.QueueMS), pct(s.SeekRotateMS), pct(s.TransferMS),
				pct(s.ParitySyncMS), pct(s.DestageStallMS))
		}
		t.AddNote("disk-s = total attributed disk-side busy/stall seconds across all drives; parity sync = full rotations held for parity inputs")
		if err := ctx.Render(t); err != nil {
			return err
		}
	}
	return nil
}

// extSLO measures the goodput-vs-deadline curve when one drive turns
// sick mid-run (4x slower, transiently failing reads) and compares a
// naive array against one using the robustness layer: bounded retries
// everywhere and hedged mirror reads on RAID1/0. Expected shape: the sick drive fattens
// the response tail, so tight deadlines miss heavily; hedging clips the
// tail on the mirrored organization (the healthy twin answers first)
// while retries keep transient errors from escalating into stripe-wide
// reconstruction reads.
func extSLO(ctx *Context) error {
	type point struct {
		label  string
		org    array.Org
		cached bool
		robust bool
	}
	points := []point{
		{"raid10 naive", array.OrgRAID10, false, false},
		{"raid10 robust", array.OrgRAID10, false, true},
		{"raid5+cache naive", array.OrgRAID5, true, false},
		{"raid5+cache robust", array.OrgRAID5, true, true},
	}
	deadlines := []sim.Time{30 * sim.Millisecond, 60 * sim.Millisecond, 120 * sim.Millisecond}
	for _, name := range ctx.TraceNames() {
		tr := ctx.Trace(name, 1)
		sick := fault.SickDisk{
			Disk:          0,
			At:            tr.Duration() / 4,
			Until:         3 * tr.Duration() / 4,
			SlowFactor:    4,
			TransientRate: 0.02,
		}
		t := &report.Table{
			Title:   fmt.Sprintf("Extension (%s): deadline misses with a sick disk (4x slow + 2%% transient errors over the middle half)", name),
			Columns: []string{"config", "deadline", "gold miss%", "batch miss%", "gold p95 (ms)", "retries", "hedge wins"},
		}
		var jobs []job
		for _, p := range points {
			for _, dl := range deadlines {
				cfg := ctx.BaseConfig(name)
				cfg.Org = p.org
				cfg.Cached = p.cached
				if p.org == array.OrgRAID10 {
					cfg.StripingUnit = 4
				}
				cfg.Fault = fault.Config{SickDisks: []fault.SickDisk{sick}}
				cfg.Robust.Deadline = dl
				cfg.Robust.BatchDeadline = 4 * dl
				if p.robust {
					cfg.Robust.Retries = 2
					if p.org == array.OrgRAID10 {
						cfg.Robust.HedgeAfter = 30 * sim.Millisecond
						cfg.Robust.HedgeQuantile = 0.95
					}
				}
				jobs = append(jobs, job{cfg: cfg, tr: tr})
			}
		}
		res, errs := runAll(jobs)
		noteErrors(t, errs)
		i := 0
		for _, p := range points {
			for _, dl := range deadlines {
				r := res[i]
				i++
				if r == nil {
					t.AddRow(p.label, fmt.Sprintf("%dms", dl/sim.Millisecond), "-", "-", "-", "-", "-")
					continue
				}
				rb := &r.Robust
				t.AddRow(p.label,
					fmt.Sprintf("%dms", dl/sim.Millisecond),
					fmt.Sprintf("%.2f%%", 100*rb.DeadlineMissFrac(array.SLOGold)),
					fmt.Sprintf("%.2f%%", 100*rb.DeadlineMissFrac(array.SLOBatch)),
					fmt.Sprintf("%.2f", rb.ClassResp[array.SLOGold].Quantile(0.95)),
					fmt.Sprintf("%d", rb.Retries),
					fmt.Sprintf("%d", rb.HedgeWins))
			}
		}
		t.AddNote("robust = 2 retries with backoff; RAID1/0 adds hedged reads (p95-derived delay)")
		t.AddNote("naive runs still count transient errors: they fall straight through to redundancy reconstruction")
		if err := ctx.Render(t); err != nil {
			return err
		}
	}
	return nil
}

// extDiurnal runs the built-in three-client diurnal workload spec — a
// latency-sensitive OLTP class riding a 24 h rate curve, a nightly batch
// scan window, and an early-morning backup spike — against the
// redundant organizations, with per-class SLO deadlines armed. The
// question the classless experiments cannot ask: when the backup spike
// lands on top of the OLTP morning ramp, which organization keeps the
// gold class inside its deadline, and at what cost to the batch
// classes? Per-class accounting (res.Classes) answers it directly.
func extDiurnal(ctx *Context) error {
	sp, err := workload.Builtin("diurnal")
	if err != nil {
		return err
	}
	sp = sp.Scaled(ctx.opts.Scale)
	tr, err := sp.Generate()
	if err != nil {
		return err
	}

	type point struct {
		label  string
		org    array.Org
		cached bool
	}
	points := []point{
		{"mirror", array.OrgMirror, false},
		{"raid10", array.OrgRAID10, false},
		{"raid5+cache", array.OrgRAID5, true},
	}
	var jobs []job
	for _, p := range points {
		cfg := ctx.BaseConfig("trace2")
		cfg.DataDisks = tr.NumDisks
		cfg.Org = p.org
		cfg.Cached = p.cached
		if p.org == array.OrgRAID10 {
			cfg.StripingUnit = 4
		}
		cfg.Robust.Deadline = 60 * sim.Millisecond
		cfg.Robust.BatchDeadline = 240 * sim.Millisecond
		jobs = append(jobs, job{cfg: cfg, tr: tr})
	}
	res, errs := runAll(jobs)

	t := &report.Table{
		Title: fmt.Sprintf("Extension: diurnal 3-client workload (%d requests, %.0fs compressed horizon), 60ms gold / 240ms batch deadlines",
			len(tr.Records), float64(tr.Duration())/float64(sim.Second)),
		Columns: []string{"config", "class", "slo", "requests", "mean ms", "p95 ms", "p99 ms", "miss%"},
	}
	noteErrors(t, errs)
	for i, p := range points {
		r := res[i]
		if r == nil {
			t.AddRow(p.label, "-", "-", "-", "-", "-", "-", "-")
			continue
		}
		for j := range r.Classes {
			c := &r.Classes[j]
			miss := "-"
			if n := c.DeadlineMet + c.DeadlineMissed; n > 0 {
				miss = fmt.Sprintf("%.2f%%", 100*float64(c.DeadlineMissed)/float64(n))
			}
			t.AddRow(p.label, c.Name, trace.SLOName(c.SLO),
				fmt.Sprintf("%d", c.Requests),
				fmt.Sprintf("%.2f", c.Resp.Mean()),
				fmt.Sprintf("%.2f", c.Resp.Quantile(0.95)),
				fmt.Sprintf("%.2f", c.Resp.Quantile(0.99)),
				miss)
		}
	}
	t.AddNote("oltp follows a 24h diurnal curve (gold SLO); scan is a night batch window; backup is a 2h-4h spike (both batch SLO)")
	t.AddNote("the spec compresses the 24h horizon by its time_scale; arrival rates — the operating point — are preserved")
	return ctx.Render(t)
}

// extTimeseries exercises the observability layer on the transients the
// steady-state figures average away: the periodic destage process
// writing back dirty bursts, and a mid-run disk failure whose rebuild
// window shows up as a latency spike plus a stretch of degraded-mode
// time — all on the paper's large OLTP workload.
func extTimeseries(ctx *Context) error {
	tr := ctx.Trace("trace1", 1)
	cfg := ctx.BaseConfig("trace1")
	cfg.Org = array.OrgRAID5
	cfg.Cached = true
	cfg.Spares = 1
	failAt := tr.Duration() / 3
	cfg.Fault.DiskFails = []fault.DiskFail{{Disk: 0, At: failAt}}

	// Window the run so the foreground span fills ~32 windows; the
	// rebuild may extend the series past the last arrival.
	win := tr.Duration() / 32
	if win < sim.Second {
		win = sim.Second
	} else {
		win -= win % sim.Second
	}
	cfg.Obs.Window = win
	// Retain every event (requests included) so the fault markers are
	// not overwritten by later request events.
	cfg.Obs.TraceCap = len(tr.Records) + 4096
	// Keep the slowest requests per class so the tail-anatomy table can
	// attribute the rebuild-window latency spike stage by stage.
	if cfg.Obs.SpanTopK == 0 {
		cfg.Obs.SpanTopK = 4
	}

	res, err := core.Run(cfg, tr)
	if err != nil {
		return err
	}

	if err := ctx.Render(report.SeriesFigure(
		fmt.Sprintf("Extension: response over time, cached RAID5, disk 0 fails at %.0fs", float64(failAt)/float64(sim.Second)),
		res.Series)); err != nil {
		return err
	}

	st := report.SeriesTable("Extension: windowed time series (cached RAID5, trace1)", res.Series)
	st.AddNote("destg blk column: the periodic destage process writing back dirty bursts")
	st.AddNote("rebuild blk + degraded columns: the hot-spare rebuild window after the failure at %.0fs", float64(failAt)/float64(sim.Second))
	if err := ctx.Render(st); err != nil {
		return err
	}

	if len(res.TailSpans) > 0 {
		// TailSpans keeps the slowest K per class *per array*; with
		// ceil(130/N) arrays that is too many rows, so re-select the
		// slowest few per class system-wide.
		byClass := map[string][]obs.SpanSample{}
		for _, s := range res.TailSpans {
			k := s.Tree.Class
			if s.Tree.Degraded {
				k += "/degraded"
			}
			byClass[k] = append(byClass[k], s)
		}
		// Visit the classes in name order and sort stably, so requests of
		// equal duration keep one order from run to run.
		classes := make([]string, 0, len(byClass))
		for k := range byClass {
			classes = append(classes, k)
		}
		sort.Strings(classes)
		var tail []obs.SpanSample
		for _, k := range classes {
			g := byClass[k]
			sort.SliceStable(g, func(i, j int) bool {
				return g[i].Tree.Duration() > g[j].Tree.Duration()
			})
			if len(g) > 4 {
				g = g[:4]
			}
			tail = append(tail, g...)
		}
		sort.SliceStable(tail, func(i, j int) bool {
			return tail[i].Tree.Duration() > tail[j].Tree.Duration()
		})
		tt := report.TailTable("tail anatomy: slowest requests per class", tail)
		if err := ctx.Render(tt); err != nil {
			return err
		}
	}

	ev := &report.Table{
		Title:   "fault events (from the observability trace)",
		Columns: []string{"t (s)", "array", "event", "disk"},
	}
	for _, e := range res.ObsEvents {
		switch e.Kind {
		case obs.EvDiskFail, obs.EvSpareSwap, obs.EvRebuildDone, obs.EvCacheFail, obs.EvDataLoss:
			ev.AddRow(
				fmt.Sprintf("%.2f", float64(e.At)/float64(sim.Second)),
				fmt.Sprintf("%d", e.Array),
				e.Kind,
				fmt.Sprintf("%d", e.Disk),
			)
		}
	}
	return ctx.Render(ev)
}
