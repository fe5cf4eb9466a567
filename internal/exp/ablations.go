package exp

import (
	"fmt"

	"raidsim/internal/array"
	"raidsim/internal/disk"
	"raidsim/internal/report"
	"raidsim/internal/sim"
)

func init() {
	register(Experiment{ID: "ablate-destage", Title: "Ablation: periodic destage vs pure LRU write-back (section 3.4)", Figure: "ablation (section 3.4)",
		Knobs: "writeback: periodic/pure-LRU; org: cached orgs", Run: ablateDestage})
	register(Experiment{ID: "ablate-pstripe", Title: "Ablation: fine-grained parity striping (section 4.2.1 future work)", Figure: "ablation (section 4.2.1)",
		Knobs: "parity stripe unit: classic vs fine-grained", Run: ablatePStripe})
	register(Experiment{ID: "ablate-sync-destage", Title: "Ablation: destage period", Figure: "ablation (section 3.4)",
		Knobs: "destage period: 0.25, 1, 4, 16 s", Run: ablateDestagePeriod})
	register(Experiment{ID: "ablate-sched", Title: "Ablation: drive queue discipline (FIFO/SSTF/LOOK)", Figure: "ablation",
		Knobs: "sched: fifo/sstf/look; trace speed", Run: ablateSched})
	register(Experiment{ID: "ablate-spindles", Title: "Ablation: spindle synchronization", Figure: "ablation",
		Knobs: "spindles: independent vs synchronized", Run: ablateSpindles})
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

// ablateSched compares drive queue disciplines under the skewed trace:
// how much of RAID5's balancing advantage could a smarter drive scheduler
// have delivered on its own?
func ablateSched(ctx *Context) error {
	for _, name := range ctx.TraceNames() {
		tr := ctx.Trace(name, 1)
		t := &report.Table{
			Title:   fmt.Sprintf("Ablation (%s): drive queue discipline, non-cached (resp ms)", name),
			Columns: []string{"org", "fifo", "sstf", "look"},
		}
		for _, org := range []array.Org{array.OrgBase, array.OrgRAID5} {
			var jobs []job
			for _, s := range []disk.Sched{disk.FIFO, disk.SSTF, disk.LOOK} {
				cfg := ctx.BaseConfig(name)
				cfg.Org = org
				cfg.DiskSched = s
				jobs = append(jobs, job{cfg: cfg, tr: tr})
			}
			res, errs := runAll(jobs)
			noteErrors(t, errs)
			t.AddRow(org.String(),
				fmt.Sprintf("%.2f", meanOrNaN(res[0])),
				fmt.Sprintf("%.2f", meanOrNaN(res[1])),
				fmt.Sprintf("%.2f", meanOrNaN(res[2])))
		}
		if err := ctx.Render(t); err != nil {
			return err
		}
	}
	return nil
}

// ablateSpindles measures the effect of spindle synchronization (the
// paper assumes none) on full-stripe-write-heavy traffic.
func ablateSpindles(ctx *Context) error {
	for _, name := range ctx.TraceNames() {
		tr := ctx.Trace(name, 1)
		t := &report.Table{
			Title:   fmt.Sprintf("Ablation (%s): spindle synchronization, non-cached RAID5 (resp ms)", name),
			Columns: []string{"striping unit", "independent", "synchronized"},
		}
		for _, su := range []int{1, 16} {
			var jobs []job
			for _, syncd := range []bool{false, true} {
				cfg := ctx.BaseConfig(name)
				cfg.Org = array.OrgRAID5
				cfg.StripingUnit = su
				cfg.SyncSpindles = syncd
				jobs = append(jobs, job{cfg: cfg, tr: tr})
			}
			res, errs := runAll(jobs)
			noteErrors(t, errs)
			t.AddRow(fmt.Sprintf("%d", su),
				fmt.Sprintf("%.2f", meanOrNaN(res[0])),
				fmt.Sprintf("%.2f", meanOrNaN(res[1])))
		}
		if err := ctx.Render(t); err != nil {
			return err
		}
	}
	return nil
}
