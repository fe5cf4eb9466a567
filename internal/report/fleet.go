package report

import "fmt"

// FleetStats summarizes a campaign execution for FleetTable. The types
// here are report-local on purpose: the campaign layer knows nothing
// about rendering, so callers (cmd/campaign) translate campaign.Outcome
// into this shape rather than report importing campaign.
type FleetStats struct {
	Runs     int // points in the campaign
	Executed int
	Resumed  int
	Failed   int

	Events  uint64 // engine events across executed runs
	WallNS  int64  // campaign wall-clock, nanoseconds
	BusyNS  int64  // summed engine busy time across runs (CPU-seconds proxy)
	Workers []WorkerRow
}

// WorkerRow is one worker's share of a campaign: how many runs it
// executed, how many it stole from other workers' strides, and how long
// it was busy inside run bodies.
type WorkerRow struct {
	Worker int
	Tasks  int
	Steals int
	BusyNS int64
}

// FleetTable renders the campaign-wide execution summary: one row per
// worker (tasks, steals, busy time, occupancy against the campaign
// wall-clock) with fleet totals — wall-clock, aggregate events/sec and
// the engine-busy/wall ratio, the honest parallel-speedup figure — as
// notes. Returns nil when nothing executed, so callers can render
// unconditionally.
func FleetTable(title string, f FleetStats) *Table {
	if f.Runs == 0 || len(f.Workers) == 0 {
		return nil
	}
	t := &Table{
		Title:   title,
		Columns: []string{"worker", "tasks", "steals", "busy s", "occupancy"},
	}
	wall := float64(f.WallNS) / 1e9
	for _, w := range f.Workers {
		busy := float64(w.BusyNS) / 1e9
		occ := "-"
		if wall > 0 {
			occ = fmt.Sprintf("%.0f%%", 100*busy/wall)
		}
		t.AddRow(
			fmt.Sprintf("%d", w.Worker),
			fmt.Sprintf("%d", w.Tasks),
			fmt.Sprintf("%d", w.Steals),
			fmt.Sprintf("%.2f", busy),
			occ,
		)
	}
	t.AddNote(fmt.Sprintf("%d runs (%d executed, %d resumed, %d failed) in %.1fs wall-clock",
		f.Runs, f.Executed, f.Resumed, f.Failed, wall))
	if wall > 0 && f.Events > 0 {
		t.AddNote(fmt.Sprintf("%.0f engine events/s aggregate (%d events)",
			float64(f.Events)/wall, f.Events))
	}
	if wall > 0 && f.BusyNS > 0 {
		t.AddNote(fmt.Sprintf("engine busy %.1fs over %.1fs wall = %.2fx parallel occupancy",
			float64(f.BusyNS)/1e9, wall, float64(f.BusyNS)/1e9/wall))
	}
	return t
}
