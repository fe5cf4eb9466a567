package report

import (
	"fmt"

	"raidsim/internal/obs"
)

// FleetTable renders the campaign-wide execution summary from the fleet
// registry's status: one row per worker (fresh runs finished, their busy
// time, occupancy against the execution clock) with the run counts and
// the fresh events/sec as notes. Returns nil when nothing executed, so
// callers can render unconditionally.
func FleetTable(title string, f obs.FleetStatus) *Table {
	if f.Finished == 0 || len(f.Workers) == 0 {
		return nil
	}
	t := &Table{
		Title:   title,
		Columns: []string{"worker", "tasks", "busy s", "occupancy"},
	}
	for _, w := range f.Workers {
		busy := float64(w.BusyNS) / 1e9
		occ := "-"
		if f.ExecElapsedSec > 0 {
			occ = fmt.Sprintf("%.0f%%", 100*busy/f.ExecElapsedSec)
		}
		t.AddRow(
			fmt.Sprintf("%d", w.Worker),
			fmt.Sprintf("%d", w.Tasks),
			fmt.Sprintf("%.2f", busy),
			occ,
		)
	}
	t.AddNote(fmt.Sprintf("%d runs (%d executed, %d resumed, %d failed) in %.1fs of execution",
		f.Total, f.Finished, f.Resumed, f.Failed, f.ExecElapsedSec))
	if f.FreshEventsPerSec > 0 {
		t.AddNote(fmt.Sprintf("%.0f engine events/s over fresh runs (%d events)", f.FreshEventsPerSec, f.FreshEvents))
	}
	return t
}
