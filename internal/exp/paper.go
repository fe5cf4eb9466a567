package exp

import (
	"fmt"

	"raidsim/internal/array"
	"raidsim/internal/core"
	"raidsim/internal/geom"
	"raidsim/internal/report"
	"raidsim/internal/trace"
)

func init() {
	register(Experiment{ID: "table1", Title: "Table 1: disk and channel parameters", Figure: "Table 1",
		Knobs: "none (static model parameters)", Run: table1})
	register(Experiment{ID: "table2", Title: "Table 2: trace characteristics", Figure: "Table 2",
		Knobs: "trace: trace1, trace2", Run: table2})
	register(Experiment{ID: "fig6", Title: "Figure 6: per-disk accesses, Base (Trace 1)", Figure: "Figure 6",
		Knobs: "per-disk histogram, Base", Run: fig6})
	register(Experiment{ID: "fig7", Title: "Figure 7: per-disk accesses, RAID5 (Trace 1)", Figure: "Figure 7",
		Knobs: "per-disk histogram, RAID5", Run: fig7})
}

func table1(ctx *Context) error {
	spec := geom.Default()
	seek := geom.MustCalibrateSeek(spec)
	t := &report.Table{
		Title:   "Table 1: disk and channel parameters",
		Columns: []string{"Parameter", "Value"},
	}
	t.AddRow("Rotation speed", fmt.Sprintf("%d rpm", spec.RPM))
	t.AddRow("Average seek", fmt.Sprintf("%.1f ms", spec.AvgSeekMS))
	t.AddRow("Maximal seek", fmt.Sprintf("%.0f ms", spec.MaxSeekMS))
	t.AddRow("Tracks per platter", fmt.Sprintf("%d", spec.Cylinders))
	t.AddRow("Sectors per track", fmt.Sprintf("%d", spec.SectorsPerTrack))
	t.AddRow("Bytes per sector", fmt.Sprintf("%d", spec.SectorBytes))
	t.AddRow("Recording surfaces", fmt.Sprintf("%d", spec.Heads))
	t.AddRow("Channel transfer rate", fmt.Sprintf("%.0f MB/s", spec.ChannelMBps))
	t.AddRow("Capacity", fmt.Sprintf("%.2f GB", float64(spec.CapacityBytes())/1e9))
	t.AddNote("seek curve t(d) = %.4f*sqrt(d-1) + %.5f*(d-1) + %.2f ms; model mean %.2f ms",
		seek.A, seek.B, seek.C, seek.MeanMS())
	return ctx.Render(t)
}

func table2(ctx *Context) error {
	t := &report.Table{
		Title:   "Table 2: trace characteristics (synthetic, scaled)",
		Columns: []string{"Metric", "Trace 1", "Trace 2"},
	}
	var cs []trace.Characteristics
	for _, name := range []string{"trace1", "trace2"} {
		cs = append(cs, trace.Characterize(ctx.Trace(name, 1)))
	}
	row := func(label string, f func(c trace.Characteristics) string) {
		t.AddRow(label, f(cs[0]), f(cs[1]))
	}
	row("Duration", func(c trace.Characteristics) string {
		return fmt.Sprintf("%ds", c.Duration/1e9)
	})
	row("# of disks", func(c trace.Characteristics) string { return fmt.Sprintf("%d", c.NumDisks) })
	row("# of I/O accesses", func(c trace.Characteristics) string { return fmt.Sprintf("%d", c.Accesses) })
	row("# of blocks transferred", func(c trace.Characteristics) string { return fmt.Sprintf("%d", c.BlocksTransferred) })
	row("# of single block reads", func(c trace.Characteristics) string { return fmt.Sprintf("%d", c.SingleBlockReads) })
	row("# of single block writes", func(c trace.Characteristics) string { return fmt.Sprintf("%d", c.SingleBlockWrites) })
	row("# of multiblock reads", func(c trace.Characteristics) string { return fmt.Sprintf("%d", c.MultiBlockReads) })
	row("# of multiblock writes", func(c trace.Characteristics) string { return fmt.Sprintf("%d", c.MultiBlockWrites) })
	row("write fraction", func(c trace.Characteristics) string { return fmt.Sprintf("%.3f", c.WriteFraction()) })
	row("disk skew (peak/mean)", func(c trace.Characteristics) string { return fmt.Sprintf("%.2f", c.Skew()) })
	return ctx.Render(t)
}

// perDiskAccesses runs one config on Trace 1 and renders the access count
// of every physical disk.
func perDiskAccesses(ctx *Context, title string, mutate func(*core.Config)) error {
	cfg := ctx.BaseConfig("trace1")
	cfg.Org = array.OrgBase
	mutate(&cfg)
	res, err := core.Run(cfg, ctx.Trace("trace1", 1))
	if err != nil {
		return err
	}
	t := &report.Table{
		Title:   title,
		Columns: []string{"disk", "accesses", "utilization"},
	}
	for i, n := range res.DiskAccesses {
		t.AddRow(fmt.Sprintf("%d", i), fmt.Sprintf("%d", n), fmt.Sprintf("%.4f", res.DiskUtil[i]))
	}
	var max, sum int64
	for _, n := range res.DiskAccesses {
		sum += n
		if n > max {
			max = n
		}
	}
	mean := float64(sum) / float64(len(res.DiskAccesses))
	t.AddNote("peak/mean access skew = %.2f", float64(max)/mean)
	return ctx.Render(t)
}

func fig6(ctx *Context) error {
	return perDiskAccesses(ctx, "Figure 6: accesses per disk, Base organization (Trace 1)",
		func(cfg *core.Config) { cfg.Org = array.OrgBase })
}

func fig7(ctx *Context) error {
	return perDiskAccesses(ctx, "Figure 7: accesses per disk, RAID5 1-block striping unit (Trace 1)",
		func(cfg *core.Config) { cfg.Org = array.OrgRAID5; cfg.StripingUnit = 1 })
}
