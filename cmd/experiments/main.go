// Command experiments regenerates the paper's tables and figures (and
// this reproduction's ablations and extensions). Each experiment prints
// the same rows/series the paper reports, as aligned tables or CSV.
//
// Examples:
//
//	experiments -list
//	experiments -exp fig5
//	experiments -exp fig11,fig12 -scale 0.25
//	experiments -all -scale 0.1 > results.txt
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"raidsim/internal/cliflag"
	"raidsim/internal/exp"
	"raidsim/internal/obs"
	"raidsim/internal/sim"
)

func main() {
	var (
		list      = flag.Bool("list", false, "list available experiments")
		ids       = flag.String("exp", "", "comma-separated experiment ids to run")
		all       = flag.Bool("all", false, "run every experiment")
		scale     = flag.Float64("scale", 0.1, "trace scale (1.0 = the paper's full request counts)")
		traces    = flag.String("traces", "trace1,trace2", "workloads to evaluate")
		seed      = flag.Uint64("seed", 1, "simulation seed")
		csv       = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		plot      = flag.Bool("plot", false, "draw figures as ASCII charts above their tables")
		outDir    = flag.String("out", "", "write each experiment's output to <dir>/<id>.txt instead of stdout")
		quiet     = flag.Bool("quiet", false, "suppress progress messages on stderr")
		obsWindow = flag.Duration("obs-window", 0, "record windowed time series at this granularity in every run (0 = off)")
		traceTopK = flag.Int("trace-topk", 0, "trace per-request span trees in every run, keeping the slowest K per class (0 = off)")
		httpAddr  = flag.String("http", "", "serve live /metrics (Prometheus text) and /debug/pprof on this address while experiments run")
	)
	prof := cliflag.BindProfile(flag.CommandLine)
	flag.Parse()

	if *list {
		fmt.Printf("%-20s %-26s %s\n", "ID", "FIGURE", "TITLE")
		for _, e := range exp.All() {
			fmt.Printf("%-20s %-26s %s\n", e.ID, e.Figure, e.Title)
			if e.Knobs != "" {
				fmt.Printf("%-20s %-26s knobs: %s\n", "", "", e.Knobs)
			}
		}
		return
	}

	if err := prof.Start(); err != nil {
		fatal(err)
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fatal(err)
		}
	}()

	var todo []exp.Experiment
	switch {
	case *all:
		todo = exp.All()
	case *ids != "":
		for _, id := range strings.Split(*ids, ",") {
			e, err := exp.Get(strings.TrimSpace(id))
			if err != nil {
				fatal(err)
			}
			todo = append(todo, e)
		}
	default:
		fatal(fmt.Errorf("nothing to do: pass -list, -exp <ids> or -all"))
	}

	var live *obs.Live
	if *httpAddr != "" {
		live = obs.NewLive()
		srv, err := obs.Serve(*httpAddr, live)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "serving metrics on http://%s/metrics (pprof on /debug/pprof/)\n", srv.Addr)
		defer func() {
			if err := srv.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			}
		}()
	}

	mkCtx := func(out *os.File) *exp.Context {
		return exp.NewContext(exp.Options{
			Scale:  *scale,
			Traces: strings.Split(*traces, ","),
			Seed:   *seed,
			Out:    out,
			CSV:    *csv,
			Plot:   *plot,
			Obs:    obs.Config{Window: sim.Time(*obsWindow), SpanTopK: *traceTopK, Live: live},
		})
	}
	var ctx *exp.Context
	if *outDir == "" {
		ctx = mkCtx(os.Stdout)
	} else if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	for _, e := range todo {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "== %s: %s\n", e.ID, e.Title)
		}
		t0 := time.Now()
		run := ctx
		var f *os.File
		if *outDir != "" {
			ext := ".txt"
			if *csv {
				ext = ".csv"
			}
			var err error
			f, err = os.Create(filepath.Join(*outDir, e.ID+ext))
			if err != nil {
				fatal(err)
			}
			run = mkCtx(f)
		}
		if err := e.Run(run); err != nil {
			fatal(fmt.Errorf("%s: %w", e.ID, err))
		}
		if f != nil {
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "   done in %v\n", time.Since(t0).Round(time.Millisecond))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
