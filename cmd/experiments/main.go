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
)

func main() {
	var (
		list     = flag.Bool("list", false, "list available experiments")
		ids      = flag.String("exp", "", "comma-separated experiment ids to run")
		all      = flag.Bool("all", false, "run every experiment")
		scale    = flag.Float64("scale", 0.1, "trace scale (1.0 = the paper's full request counts)")
		traces   = flag.String("traces", "trace1,trace2", "workloads to evaluate")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		plot     = flag.Bool("plot", false, "draw figures as ASCII charts above their tables")
		outDir   = flag.String("out", "", "write each experiment's output to <dir>/<id>.txt instead of stdout")
		quiet    = flag.Bool("quiet", false, "suppress progress messages on stderr")
		httpAddr = flag.String("http", "", "serve live /metrics (Prometheus text) and /debug/pprof on this address while experiments run")
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

	var todo []exp.Experiment
	switch {
	case *all:
		todo = exp.All()
	case *ids != "":
		for _, id := range strings.Split(*ids, ",") {
			e, err := exp.Get(strings.TrimSpace(id))
			check(err)
			todo = append(todo, e)
		}
	default:
		fatal(fmt.Errorf("nothing to do: pass -list, -exp <ids> or -all"))
	}

	var live *obs.Live
	if *httpAddr != "" {
		live = obs.NewLive()
	}
	// One context for the whole invocation, so a simulation that several
	// experiments show runs once; -out only switches the writer.
	ctx, err := exp.NewContext(exp.Options{
		Scale:  *scale,
		Traces: strings.Split(*traces, ","),
		Seed:   *seed,
		Out:    os.Stdout,
		CSV:    *csv,
		Plot:   *plot,
		Live:   live,
	})
	check(err)

	check(prof.Start())
	defer func() {
		check(prof.Stop())
	}()
	if live != nil {
		srv, err := obs.Serve(*httpAddr, live)
		check(err)
		fmt.Fprintf(os.Stderr, "serving metrics on http://%s/metrics (pprof on /debug/pprof/)\n", srv.Addr)
		defer func() {
			if err := srv.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			}
		}()
	}

	if *outDir != "" {
		check(os.MkdirAll(*outDir, 0o755))
	}
	for _, e := range todo {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "== %s: %s\n", e.ID, e.Title)
		}
		t0 := time.Now()
		var f *os.File
		if *outDir != "" {
			ext := ".txt"
			if *csv {
				ext = ".csv"
			}
			var err error
			f, err = os.Create(filepath.Join(*outDir, e.ID+ext))
			check(err)
			ctx.SetOut(f)
		}
		if err := e.Run(ctx); err != nil {
			fatal(fmt.Errorf("%s: %w", e.ID, err))
		}
		if f != nil {
			check(f.Close())
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "   done in %v\n", time.Since(t0).Round(time.Millisecond))
		}
	}
}

// check exits through fatal on a non-nil error.
func check(err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
