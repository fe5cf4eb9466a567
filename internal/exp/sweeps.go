package exp

import (
	"fmt"
	"strconv"
	"strings"

	"raidsim/internal/array"
	"raidsim/internal/core"
	"raidsim/internal/layout"
	"raidsim/internal/report"
)

// sweep declares one of the paper's figure sweeps as data: every series
// runs at every axis tick, one simulation per cell, on each trace and,
// for Figure 4, in each panel.
type sweep struct {
	id, title string
	figure    string // the paper artifact, "Figure 5"
	// heading ends the rendered title "<figure> (<trace>): <heading>";
	// a panel's label follows the trace name.
	heading        string
	xlabel, ylabel string
	base           func(*core.Config) // an edit every run shares; may be nil
	panels         axis               // one figure per point; usually empty
	series, ticks  axis
	// hits makes each series two, its read and write hit ratios (0 for a
	// failed run); otherwise a cell is the mean response (NaN if failed).
	hits bool
}

// axis is one swept dimension: the knob it turns, for -list, and its
// labelled points.
type axis struct {
	knob   string
	points []point
}

// point is one value of an axis: a config edit, or for a tick a trace
// speed (0 runs the trace at speed 1).
type point struct {
	label string
	set   func(*core.Config)
	speed float64
}

// axisOf builds the axis that sets each of vs with set, labelled by label.
func axisOf[T any](knob string, label func(T) string, set func(*core.Config, T), vs ...T) axis {
	a := axis{knob: knob}
	for _, v := range vs {
		a.points = append(a.points, point{label: label(v), set: func(c *core.Config) { set(c, v) }})
	}
	return a
}

func orgs(os ...array.Org) axis {
	return axisOf("org", array.Org.String, func(c *core.Config, o array.Org) { c.Org = o }, os...)
}

func arraySizes(ns ...int) axis {
	return axisOf("N", strconv.Itoa, func(c *core.Config, n int) { c.N = n }, ns...)
}

// arraySizesFixedCache sweeps N holding the total cache constant: each
// array's cache grows with its mbPerDisk share of N data disks.
func arraySizesFixedCache(mbPerDisk float64, ns ...int) axis {
	return axisOf(fmt.Sprintf("N at %g MB cache per data disk", mbPerDisk), strconv.Itoa, func(c *core.Config, n int) {
		c.N = n
		c.CacheMB = int(mbPerDisk * float64(n))
	}, ns...)
}

func stripingUnits() axis {
	return axisOf("striping unit (blocks)", strconv.Itoa, func(c *core.Config, su int) { c.StripingUnit = su },
		1, 2, 4, 8, 16, 32, 64)
}

func cacheSizes() axis {
	return axisOf("cache", func(mb int) string { return fmt.Sprintf("%dMB", mb) },
		func(c *core.Config, mb int) { c.CacheMB = mb }, 8, 16, 32, 64, 128, 256)
}

func traceSpeeds() axis {
	a := axis{knob: "trace speed"}
	for _, s := range []float64{0.5, 1, 2} {
		a.points = append(a.points, point{label: fmt.Sprintf("%g", s), speed: s})
	}
	return a
}

func cached(c *core.Config) { c.Cached = true }

const respMS = "response time (ms)"

var (
	fourOrgs  = orgs(array.OrgBase, array.OrgMirror, array.OrgRAID5, array.OrgParityStriping)
	raid5v4   = orgs(array.OrgRAID5, array.OrgRAID4)
	paperNs   = arraySizes(5, 10, 15, 20)
	syncPols  = axisOf("sync", array.SyncPolicy.String, func(c *core.Config, p array.SyncPolicy) { c.Sync = p }, array.SI, array.RF, array.RFPR, array.DF, array.DFPR)
	placement = axisOf("placement", layout.Placement.String, func(c *core.Config, p layout.Placement) { c.Placement = p }, layout.MiddlePlacement, layout.EndPlacement)
)

// sweeps are the paper's Figures 4, 5 and 8-19.
var sweeps = []sweep{
	{id: "fig4", figure: "Figure 4", title: "Figure 4: synchronization policies vs array size",
		heading: "synchronization policies", xlabel: "N", ylabel: respMS,
		panels: orgs(array.OrgRAID5, array.OrgParityStriping), series: syncPols, ticks: paperNs},
	{id: "fig5", figure: "Figure 5", title: "Figure 5: response time vs array size (non-cached)",
		heading: "response time vs array size, non-cached", xlabel: "N", ylabel: respMS,
		series: fourOrgs, ticks: paperNs},
	{id: "fig8", figure: "Figure 8", title: "Figure 8: striping unit (non-cached RAID5)",
		heading: "striping unit, non-cached RAID5 (N=10)", xlabel: "striping unit (blocks)", ylabel: respMS,
		series: orgs(array.OrgRAID5), ticks: stripingUnits()},
	{id: "fig9", figure: "Figure 9", title: "Figure 9: parity placement (Parity Striping)",
		heading: "parity placement, Parity Striping", xlabel: "N", ylabel: respMS,
		base:   func(c *core.Config) { c.Org = array.OrgParityStriping },
		series: placement, ticks: paperNs},
	{id: "fig10", figure: "Figure 10", title: "Figure 10: trace speed (non-cached)",
		heading: "trace speed, non-cached (N=10)", xlabel: "speed", ylabel: respMS,
		series: fourOrgs, ticks: traceSpeeds()},
	{id: "fig11", figure: "Figure 11", title: "Figure 11: hit ratios vs cache size (parity vs non-parity)",
		heading: "hit ratio vs cache size", xlabel: "cache", ylabel: "hit ratio",
		base: cached, series: orgs(array.OrgBase, array.OrgRAID5), ticks: cacheSizes(), hits: true},
	{id: "fig12", figure: "Figure 12", title: "Figure 12: response time vs cache size (cached orgs)",
		heading: "response time vs cache size", xlabel: "cache", ylabel: respMS,
		base: cached, series: fourOrgs, ticks: cacheSizes()},
	{id: "fig13", figure: "Figure 13", title: "Figure 13: array size, cached orgs, fixed total cache",
		heading: "array size, cached, fixed total cache", xlabel: "N", ylabel: respMS,
		base: cached, series: fourOrgs, ticks: arraySizesFixedCache(1.6, 5, 10, 15)},
	{id: "fig14", figure: "Figure 14", title: "Figure 14: striping unit, cached RAID5",
		heading: "striping unit, cached RAID5 (16MB)", xlabel: "striping unit (blocks)", ylabel: respMS,
		base: cached, ticks: stripingUnits(),
		series: axis{knob: "org", points: []point{{label: "raid5-cached", set: func(c *core.Config) { c.Org = array.OrgRAID5 }}}}},
	{id: "fig15", figure: "Figure 15", title: "Figure 15: hit ratios, RAID5 vs RAID4 parity caching",
		heading: "hit ratio, RAID5 vs RAID4 parity caching", xlabel: "cache", ylabel: "hit ratio",
		base: cached, series: raid5v4, ticks: cacheSizes(), hits: true},
	{id: "fig16", figure: "Figure 16", title: "Figure 16: response time vs cache size, RAID4 vs RAID5",
		heading: "response time, RAID4 vs RAID5", xlabel: "cache", ylabel: respMS,
		base: cached, series: raid5v4, ticks: cacheSizes()},
	{id: "fig17", figure: "Figure 17", title: "Figure 17: array size, RAID4 vs RAID5, fixed total cache",
		heading: "array size, RAID4 vs RAID5", xlabel: "N", ylabel: respMS,
		base: cached, series: raid5v4, ticks: arraySizesFixedCache(1.6, 5, 10, 20)},
	{id: "fig18", figure: "Figure 18", title: "Figure 18: trace speed, RAID4 vs RAID5",
		heading: "trace speed, RAID4 vs RAID5 (16MB)", xlabel: "speed", ylabel: respMS,
		base: cached, series: raid5v4, ticks: traceSpeeds()},
	{id: "fig19", figure: "Figure 19", title: "Figure 19: striping unit, RAID4 vs RAID5",
		heading: "striping unit, RAID4 vs RAID5 (16MB)", xlabel: "striping unit (blocks)", ylabel: respMS,
		base: cached, series: raid5v4, ticks: stripingUnits()},
}

func init() {
	for i := range sweeps {
		s := &sweeps[i]
		register(Experiment{ID: s.id, Title: s.title, Figure: s.figure, Knobs: s.knobs(), Run: s.run})
	}
}

// knobs lists every axis with the values it sweeps, so -list states what
// runs.
func (s *sweep) knobs() string {
	var parts []string
	for _, a := range []axis{s.panels, s.series, s.ticks} {
		if len(a.points) == 0 {
			continue
		}
		labels := make([]string, len(a.points))
		for i, p := range a.points {
			labels[i] = p.label
		}
		parts = append(parts, a.knob+": "+strings.Join(labels, ", "))
	}
	return strings.Join(parts, "; ")
}

// run renders one figure per trace and panel.
func (s *sweep) run(ctx *Context) error {
	panels := s.panels.points
	if len(panels) == 0 {
		panels = []point{{}}
	}
	for _, name := range ctx.TraceNames() {
		for _, pn := range panels {
			if err := ctx.Render(s.figureFor(ctx, name, pn)); err != nil {
				return err
			}
		}
	}
	return nil
}

// figureFor runs every cell of one panel on one trace in a single runAll
// call and fills the figure. A failed cell's note names its series and
// tick.
func (s *sweep) figureFor(ctx *Context, name string, pn point) *report.Figure {
	where := name
	if pn.label != "" {
		where += ", " + pn.label
	}
	fig := &report.Figure{
		Title:  fmt.Sprintf("%s (%s): %s", s.figure, where, s.heading),
		XLabel: s.xlabel,
		YLabel: s.ylabel,
	}
	var jobs []job
	for _, se := range s.series.points {
		for _, tk := range s.ticks.points {
			cfg := ctx.BaseConfig(name)
			for _, set := range []func(*core.Config){s.base, pn.set, se.set, tk.set} {
				if set != nil {
					set(&cfg)
				}
			}
			speed := tk.speed
			if speed == 0 {
				speed = 1
			}
			jobs = append(jobs, job{cfg: cfg, tr: ctx.Trace(name, speed)})
		}
	}
	for _, tk := range s.ticks.points {
		fig.XTicks = append(fig.XTicks, tk.label)
	}
	res, errs := runAll(jobs)
	nt := len(s.ticks.points)
	for i, se := range s.series.points {
		cells := res[i*nt : (i+1)*nt]
		for k, e := range errs[i*nt : (i+1)*nt] {
			if e != "" {
				fig.AddNote("failed run: %s @%s: %s", se.label, s.ticks.points[k].label, e)
			}
		}
		if !s.hits {
			vals := make([]float64, nt)
			for k, r := range cells {
				vals[k] = meanOrNaN(r)
			}
			fig.Add(se.label, vals...)
			continue
		}
		reads, writes := make([]float64, nt), make([]float64, nt)
		for k, r := range cells {
			if r != nil {
				reads[k], writes[k] = r.ReadHitRatio(), r.WriteHitRatio()
			}
		}
		fig.Add(se.label+"-read", reads...)
		fig.Add(se.label+"-write", writes...)
	}
	return fig
}
