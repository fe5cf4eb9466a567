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
	"runtime"
	"sort"
	"sync"

	"raidsim/internal/array"
	"raidsim/internal/campaign"
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
	// Obs threads an observability config into every BaseConfig, so any
	// experiment can be run with windowed time series on.
	Obs obs.Config
}

func (o *Options) fill() {
	if o.Scale <= 0 {
		o.Scale = 0.1
	}
	if len(o.Traces) == 0 {
		o.Traces = []string{"trace1", "trace2"}
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

// Context carries shared state (cached traces) across an experiment.
type Context struct {
	opts    Options
	mu      sync.Mutex
	traces  map[string]*trace.Trace
	profile map[string]workload.Profile
}

// NewContext prepares a Context for the options.
func NewContext(opts Options) *Context {
	opts.fill()
	return &Context{
		opts:   opts,
		traces: make(map[string]*trace.Trace),
		profile: map[string]workload.Profile{
			"trace1": workload.Trace1Profile(),
			"trace2": workload.Trace2Profile(),
		},
	}
}

// TraceNames returns the selected workloads.
func (ctx *Context) TraceNames() []string { return ctx.opts.Traces }

// Profile returns the workload profile for a trace name.
func (ctx *Context) Profile(name string) workload.Profile {
	p, ok := ctx.profile[name]
	if !ok {
		panic(fmt.Sprintf("exp: unknown trace %q", name))
	}
	return p.Scaled(ctx.opts.Scale)
}

// Trace returns the (cached) generated trace at the given speed factor.
func (ctx *Context) Trace(name string, speed float64) *trace.Trace {
	key := fmt.Sprintf("%s@%g", name, speed)
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	if t, ok := ctx.traces[key]; ok {
		return t
	}
	base, ok := ctx.traces[name+"@1"]
	if !ok {
		var err error
		base, err = workload.Generate(ctx.Profile(name))
		if err != nil {
			panic(fmt.Sprintf("exp: generating %s: %v", name, err))
		}
		ctx.traces[name+"@1"] = base
	}
	if speed == 1 {
		return base
	}
	t, err := base.Scale(speed)
	if err != nil {
		panic(fmt.Sprintf("exp: scaling %s: %v", name, err))
	}
	ctx.traces[key] = t
	return t
}

// BaseConfig returns the paper's default configuration (Table 4) for a
// workload: the core defaults (N = 10, 4 KB blocks, Disk First
// synchronization, 1-block striping unit, middle-cylinder parity
// placement, 16 MB cache when caching is on) with the workload's disk
// count, the run's seed, and the run's observability config.
func (ctx *Context) BaseConfig(name string) core.Config {
	p := ctx.profile[name]
	return core.Config{
		DataDisks: p.NumDisks,
		Sync:      array.DF,
		Seed:      ctx.opts.Seed + 1,
		Obs:       ctx.opts.Obs,
	}.Normalize()
}

// Render writes a renderable (Table or Figure) honoring the CSV option.
type renderable interface {
	Render(io.Writer) error
	RenderCSV(io.Writer) error
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

// runAll executes the jobs on the shared campaign pool (bounded by
// GOMAXPROCS) and returns results in order. A failed run (e.g.
// hopelessly overloaded at double trace speed) yields a nil entry and
// an error message naming the failing configuration; render it with
// noteErrors.
func runAll(jobs []job) ([]*core.Results, []string) {
	workers := runtime.GOMAXPROCS(0)
	points := make([]campaign.Point, len(jobs))
	for i, j := range jobs {
		// Keep nested parallelism bounded: the per-config run uses the
		// worker budget too, so restrict each to a couple of array
		// workers when many configs run at once.
		cfg := j.cfg
		if cfg.Workers == 0 && len(jobs) >= workers {
			cfg.Workers = 2
		}
		// The index prefix keeps IDs unique when a sweep repeats a
		// configuration.
		points[i] = campaign.Point{
			ID:     fmt.Sprintf("%03d %s", i, describe(cfg)),
			Config: cfg,
			Trace:  j.tr,
		}
	}
	out := make([]*core.Results, len(jobs))
	oc, err := campaign.Execute(points, campaign.Options{
		Workers:  workers,
		OnResult: func(i int, _ campaign.Point, res *core.Results) { out[i] = res },
	})
	if err != nil {
		// Structural (duplicate-ID) errors cannot happen with
		// index-prefixed IDs; report defensively on every job.
		errs := make([]string, len(jobs))
		for i := range errs {
			errs[i] = err.Error()
		}
		return out, errs
	}
	return out, oc.Errors
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
