// Package exp defines the reproducible experiments: one per table and
// figure of the paper, plus the ablations and extensions DESIGN.md lists.
// Each experiment generates (or reuses) the synthetic traces, sweeps the
// parameter the paper sweeps, and renders the same rows/series the paper
// reports.
package exp

import (
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"

	"raidsim/internal/array"
	"raidsim/internal/campaign/shard"
	"raidsim/internal/core"
	"raidsim/internal/obs"
	"raidsim/internal/trace"
	"raidsim/internal/workload"
)

// Options configures an experiment run.
type Options struct {
	// Scale shrinks the traces (1.0 = the paper's full request counts).
	// The arrival *rate* — the operating point — is preserved.
	Scale float64
	// Traces selects the workloads; default both {"trace1", "trace2"}.
	Traces []string
	// Seed perturbs the simulation (not the trace) randomness.
	Seed uint64
	// Out receives rendered tables and figures.
	Out io.Writer
	// CSV, when true, renders CSV instead of aligned tables.
	CSV bool
	// Plot, when true, renders figures as ASCII charts above their tables.
	Plot bool
	// Live, when set, receives every run's live snapshots for the
	// introspection HTTP server.
	Live *obs.Live
}

func (o *Options) fill() {
	if o.Scale <= 0 {
		o.Scale = 0.1
	}
	if len(o.Traces) == 0 {
		o.Traces = traceNames
	}
	if o.Out == nil {
		panic("exp: Options.Out is required")
	}
}

// Experiment is one reproducible artifact of the paper, with a
// descriptor rich enough for an annotated registry listing: which paper
// figure or table it reproduces (or which extension it is), and the
// knobs it sweeps.
type Experiment struct {
	ID    string
	Title string
	// Figure names the paper artifact this reproduces ("Figure 5",
	// "Table 2"), or classifies the addition ("extension", "ablation").
	Figure string
	// Knobs summarizes the swept parameters and their ranges.
	Knobs string
	Run   func(ctx *Context) error
}

// traceNames are the workloads a Context can generate.
var traceNames = []string{"trace1", "trace2"}

// Context carries the state experiments share: the generated traces and
// every simulation run so far, so a cell that several figures and tables
// show is simulated once. Experiments run on it one at a time.
type Context struct {
	opts    Options
	traces  map[string]*trace.Trace
	profile map[string]workload.Profile
	cells   []*cell
}

// cell is one simulation the context has run: its trace, its config with
// Workers zeroed (the worker count never changes a result), and its
// outcome.
type cell struct {
	tr  *trace.Trace
	cfg core.Config
	res *core.Results
	err string
}

// NewContext prepares a Context for the options. It rejects a trace name
// that names no workload or appears twice.
func NewContext(opts Options) (*Context, error) {
	opts.fill()
	ctx := &Context{
		opts:   opts,
		traces: make(map[string]*trace.Trace),
		profile: map[string]workload.Profile{
			"trace1": workload.Trace1Profile(),
			"trace2": workload.Trace2Profile(),
		},
	}
	for i, name := range opts.Traces {
		if _, ok := ctx.profile[name]; !ok {
			return nil, fmt.Errorf("exp: unknown trace %q (valid: %s)", name, strings.Join(traceNames, ", "))
		}
		if slices.Contains(opts.Traces[:i], name) {
			return nil, fmt.Errorf("exp: trace %q given twice", name)
		}
	}
	return ctx, nil
}

// SetOut directs the context's rendered output to w.
func (ctx *Context) SetOut(w io.Writer) { ctx.opts.Out = w }

// TraceNames returns the selected workloads.
func (ctx *Context) TraceNames() []string { return ctx.opts.Traces }

// Profile returns the workload profile for a trace name.
func (ctx *Context) Profile(name string) workload.Profile {
	return ctx.profile[name].Scaled(ctx.opts.Scale)
}

// Trace returns the (cached) generated trace at the given speed factor.
func (ctx *Context) Trace(name string, speed float64) *trace.Trace {
	key := fmt.Sprintf("%s@%g", name, speed)
	if t, ok := ctx.traces[key]; ok {
		return t
	}
	var t *trace.Trace
	var err error
	if speed == 1 {
		t, err = workload.Generate(ctx.Profile(name))
	} else {
		t, err = ctx.Trace(name, 1).Scale(speed)
	}
	if err != nil {
		panic(fmt.Sprintf("exp: generating %s: %v", key, err))
	}
	ctx.traces[key] = t
	return t
}

// BaseConfig returns the paper's default configuration (Table 4) for a
// workload: the core defaults (N = 10, 4 KB blocks, Disk First
// synchronization, 1-block striping unit, middle-cylinder parity
// placement, 16 MB cache when caching is on) with the workload's disk
// count, the run's seed, and the live metrics sink if one is set.
func (ctx *Context) BaseConfig(name string) core.Config {
	c := core.DefaultConfig(array.OrgBase)
	c.DataDisks = ctx.profile[name].NumDisks
	c.Seed = ctx.opts.Seed + 1
	c.Obs = obs.Config{Live: ctx.opts.Live}
	return c
}

// Render writes a renderable (Table or Figure) honoring the CSV option.
type renderable interface {
	Render(io.Writer) error
	RenderCSV(io.Writer) error
}

// perTrace renders, for each selected trace, the table that table builds
// from it at speed 1.
func (ctx *Context) perTrace(table func(name string, tr *trace.Trace) renderable) error {
	for _, name := range ctx.TraceNames() {
		if err := ctx.Render(table(name, ctx.Trace(name, 1))); err != nil {
			return err
		}
	}
	return nil
}

// plottable is a renderable that can also draw itself as an ASCII chart.
type plottable interface {
	RenderPlot(io.Writer) error
}

// Render emits r to the context's output.
func (ctx *Context) Render(r renderable) error {
	if ctx.opts.CSV {
		return r.RenderCSV(ctx.opts.Out)
	}
	if ctx.opts.Plot {
		if p, ok := r.(plottable); ok {
			if err := p.RenderPlot(ctx.opts.Out); err != nil {
				return err
			}
		}
	}
	return r.Render(ctx.opts.Out)
}

// job is one simulation point of a sweep.
type job struct {
	cfg core.Config
	tr  *trace.Trace
}

// describe names a job's configuration, so a failed run's error says
// which point of the sweep failed rather than leaving an unexplained
// blank cell.
func describe(cfg core.Config) string {
	s := fmt.Sprintf("org=%s/n=%d/sync=%s", cfg.Org, cfg.N, cfg.Sync)
	if cfg.Cached {
		s += fmt.Sprintf("/cache=%dMB", cfg.CacheMB)
	}
	if cfg.StripingUnit != 1 {
		s += fmt.Sprintf("/su=%d", cfg.StripingUnit)
	}
	return s
}

// run returns the jobs' results in order. A job whose trace and config
// (Workers aside) deeply equal a cell the context has kept reuses that
// cell; the rest run on the shared pool, bounded by GOMAXPROCS, and are
// kept. A failed run (e.g. hopelessly overloaded at double trace speed)
// yields a nil entry and an error message naming the failing
// configuration; render it with noteErrors.
func (ctx *Context) run(jobs []job) ([]*core.Results, []string) {
	cells := make([]*cell, len(jobs))
	var fresh []*cell
	for i, j := range jobs {
		j.cfg.Workers = 0
		for _, c := range ctx.cells {
			if c.tr == j.tr && reflect.DeepEqual(c.cfg, j.cfg) {
				cells[i] = c
				break
			}
		}
		if cells[i] == nil {
			cells[i] = &cell{tr: j.tr, cfg: j.cfg}
			ctx.cells = append(ctx.cells, cells[i])
			fresh = append(fresh, cells[i])
		}
	}
	// Keep nested parallelism bounded: each run uses the worker budget
	// too, so restrict each to a couple of array workers when the batch
	// fills the pool.
	arrayWorkers := 0
	if len(fresh) >= runtime.GOMAXPROCS(0) {
		arrayWorkers = 2
	}
	shard.MapStats(0, len(fresh), func(_, k int) {
		c := fresh[k]
		cfg := c.cfg
		cfg.Workers = arrayWorkers
		var err error
		if c.res, err = core.Run(cfg, c.tr); err != nil {
			c.err = fmt.Sprintf("%s: %v", describe(cfg), err)
		}
	})
	res := make([]*core.Results, len(jobs))
	errs := make([]string, len(jobs))
	for i, c := range cells {
		res[i], errs[i] = c.res, c.err
	}
	return res, errs
}

// noter carries footnotes (report.Table and report.Figure both do).
type noter interface {
	AddNote(format string, args ...interface{})
}

// noteErrors attaches failed-run errors to a table or figure, so every
// NaN (blank) cell is explained by a note naming the failing config.
func noteErrors(n noter, errs []string) {
	for _, e := range errs {
		if e != "" {
			n.AddNote("failed run: %s", e)
		}
	}
}

// meanOrNaN extracts the mean response time, NaN for failed runs.
func meanOrNaN(r *core.Results) float64 {
	if r == nil {
		return math.NaN()
	}
	return r.MeanResponseMS()
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every registered experiment, sorted by ID.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("exp: unknown experiment %q", id)
}
