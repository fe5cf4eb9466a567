package exp

import (
	"fmt"

	"raidsim/internal/array"
	"raidsim/internal/fault"
	"raidsim/internal/report"
	"raidsim/internal/sim"
)

func init() {
	register(Experiment{ID: "ext-slo", Title: "Extension: deadline misses under a sick disk, with and without the robustness layer", Figure: "extension",
		Knobs: "org: raid10, raid5+cache; gold deadline sweep; sick disk (slow, transient errors); retries/hedging on vs off", Run: extSLO})
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
