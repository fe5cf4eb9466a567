// Command campaign executes a fleet-scale parameter sweep described by a
// JSON spec file: the cross product of organization, array size, cache
// size and workload knobs, replicated over seeds, sharded across a
// worker pool, and journaled so an interrupted campaign resumes where it
// stopped. Summary and A-vs-B comparison tables go to stdout (and are
// deterministic — fit for golden-file diffs); progress and timing go to
// stderr.
//
// Examples:
//
//	campaign -spec sweep.json -out sweep.jsonl
//	campaign -spec sweep.json -out sweep.jsonl -workers 8
//	campaign -spec sweep.json -a org=raid5 -b org=mirror
//	campaign -spec sweep.json -csv > groups.csv
//	campaign -spec sweep.json -out sweep.jsonl -self-metrics
//	campaign -spec sweep.json -http :9090 -http-hold 1m
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"raidsim/internal/campaign"
	"raidsim/internal/core"
	"raidsim/internal/obs"
	"raidsim/internal/report"
)

func main() {
	var (
		specPath  = flag.String("spec", "", "campaign spec file (JSON); required")
		out       = flag.String("out", "", "JSONL journal path; completed runs are appended and a restart resumes (empty = run in memory)")
		fresh     = flag.Bool("fresh", false, "discard an existing journal instead of resuming from it")
		workers   = flag.Int("workers", 0, "worker-pool width (0 = spec's workers, then GOMAXPROCS); never changes results")
		csv       = flag.Bool("csv", false, "render tables as CSV")
		aSel      = flag.String("a", "", "comparison baseline selector, e.g. org=raid5 (with -b)")
		bSel      = flag.String("b", "", "comparison candidate selector, e.g. org=mirror (with -a)")
		seriesOut = flag.String("series-out", "", "write the merged fleet time series as CSV (needs obs_window_s in the spec)")
		quiet     = flag.Bool("q", false, "suppress per-run progress on stderr")

		httpAddr    = flag.String("http", "", "serve live campaign introspection (/metrics, /runs, /healthz, pprof) on this address, e.g. :9090")
		httpHold    = flag.Duration("http-hold", 0, "keep the introspection server up this long after the campaign finishes")
		selfMetrics = flag.Bool("self-metrics", false, "meter each run's engine (events/sec, heap depth, allocations) and journal it in the record's engine field; never changes results")
	)
	flag.Parse()
	if *specPath == "" {
		fatal(fmt.Errorf("campaign: -spec is required"))
	}
	if (*aSel == "") != (*bSel == "") {
		fatal(fmt.Errorf("campaign: -a and -b must be given together"))
	}

	spec, err := campaign.LoadSpec(*specPath)
	check(err)
	points, err := spec.Points()
	check(err)

	// The fleet registry is always armed: the progress line reads it for
	// ETA and throughput even when no HTTP server is serving it.
	live := obs.NewLive()
	opts := campaign.Options{Workers: *workers, Live: live, SelfMetrics: *selfMetrics}
	if opts.Workers == 0 {
		opts.Workers = spec.Workers
	}
	var srv *obs.Server
	if *httpAddr != "" {
		srv, err = obs.Serve(*httpAddr, live)
		check(err)
		fmt.Fprintf(os.Stderr, "campaign: introspection on http://%s (/metrics /runs /healthz /debug/pprof/)\n", srv.Addr)
	}
	if *out != "" {
		if *fresh {
			if err := os.Remove(*out); err != nil && !os.IsNotExist(err) {
				fatal(err)
			}
		}
		j, err := campaign.OpenJournal(*out, spec.Name, spec.Hash())
		check(err)
		defer j.Close()
		opts.Journal = j
	}
	if !*quiet {
		opts.OnProgress = func(done, total int, p campaign.Point) {
			fmt.Fprintf(os.Stderr, "[%d/%d] %s%s\n", done, total, p.ID, progressSuffix(live.Fleet(), done, total))
		}
	}
	var series *obs.Series
	if *seriesOut != "" {
		opts.OnResult = func(_ int, _ campaign.Point, res *core.Results) {
			if res.Series == nil {
				return
			}
			if series == nil {
				series = res.Series
			} else {
				series.Merge(res.Series)
			}
		}
	}

	outcome, err := campaign.Execute(points, opts)
	check(err)
	sec := outcome.Elapsed.Seconds()
	fmt.Fprintf(os.Stderr, "%s: %d runs (%d executed, %d resumed) in %.1fs on %d workers",
		spec.Name, len(points), outcome.Executed, outcome.Skipped, sec, len(outcome.Workers))
	if outcome.Executed > 0 && sec > 0 {
		fmt.Fprintf(os.Stderr, " — %.1f runs/s, %.0f events/s", float64(outcome.Executed)/sec, float64(outcome.Events)/sec)
	}
	fmt.Fprintln(os.Stderr)
	for _, e := range outcome.Failed() {
		fmt.Fprintf(os.Stderr, "failed: %s\n", e)
	}
	if !*quiet {
		// The fleet table goes to stderr with the rest of the timing:
		// stdout is reserved for the deterministic result tables.
		if ft := report.FleetTable("fleet execution", live.Fleet()); ft != nil {
			if *selfMetrics {
				ft.AddNote("engine: " + outcome.Engine.String())
			}
			check(ft.Render(os.Stderr))
		}
	}

	fleet, err := campaign.Merge(outcome.Records)
	check(err)
	check(render(fleet, spec, *csv))
	if *aSel != "" {
		check(compare(fleet, *aSel, *bSel, *csv))
	} else if len(spec.Orgs) == 2 {
		// The common two-organization sweep compares itself.
		check(compare(fleet, "org="+spec.Orgs[0], "org="+spec.Orgs[1], *csv))
	}
	if *seriesOut != "" {
		if series == nil {
			fmt.Fprintln(os.Stderr, "campaign: no time series collected (set obs_window_s in the spec; resumed runs carry none)")
		} else {
			f, err := os.Create(*seriesOut)
			check(err)
			check(series.WriteCSV(f))
			check(f.Close())
		}
	}
	if srv != nil {
		if *httpHold > 0 {
			fmt.Fprintf(os.Stderr, "campaign: holding introspection server for %s\n", *httpHold)
			time.Sleep(*httpHold)
		}
		srv.Close()
	}
	if len(outcome.Failed()) > 0 {
		os.Exit(1)
	}
}

// progressSuffix annotates the per-run progress line with the fleet
// registry's live view: engine events/sec and an ETA, both computed
// purely from fresh executions. Journal replays finish in microseconds
// before execution starts, so folding them into either basis is the
// classic resume bug: replayed events over replay time print absurd
// ev/s, and an elapsed clock that started before the replay pass
// inflates the per-run estimate the ETA extrapolates. FreshEvents /
// ExecElapsedSec (measured from the first fresh run) and the fresh-only
// remaining count (total - done counts only never-run points — replays
// complete before any fresh run finishes) keep both honest. The ev/s
// part is left out while the registry has no rate yet (the execution
// window is under obs.MinRateWindowSec).
func progressSuffix(f obs.FleetStatus, done, total int) string {
	if f.Finished == 0 || f.ExecElapsedSec <= 0 {
		return ""
	}
	var parts []string
	if f.FreshEventsPerSec > 0 {
		parts = append(parts, fmt.Sprintf("%.0f ev/s", f.FreshEventsPerSec))
	}
	if rem := total - done; rem > 0 {
		parts = append(parts, fmt.Sprintf("eta %.0fs", f.ExecElapsedSec/float64(f.Finished)*float64(rem)))
	}
	if len(parts) == 0 {
		return ""
	}
	return " — " + strings.Join(parts, ", ")
}

// render writes the per-group summary table.
func render(f *campaign.Fleet, spec campaign.Spec, csv bool) error {
	t := &report.Table{
		Title:   fmt.Sprintf("%s: %d runs, %d groups", spec.Name, f.Runs, len(f.Groups)),
		Columns: []string{"group", "runs", "mean (ms)", "p50", "p95", "p99"},
	}
	for i := range f.Groups {
		g := &f.Groups[i]
		t.AddRow(g.Key, fmt.Sprintf("%d", g.Runs), g.Estimate().String(),
			fmt.Sprintf("%.2f", g.Resp.Quantile(0.5)),
			fmt.Sprintf("%.2f", g.Resp.Quantile(0.95)),
			fmt.Sprintf("%.2f", g.Resp.Quantile(0.99)))
	}
	return emit(t, csv)
}

// compare renders the benchstat-style A-vs-B table, pairing groups by
// the params left over once the selectors are stripped.
func compare(f *campaign.Fleet, aSel, bSel string, csv bool) error {
	a, err := f.Select(aSel)
	if err != nil {
		return err
	}
	b, err := f.Select(bSel)
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(a))
	for k := range a {
		if _, ok := b[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if len(keys) == 0 {
		return fmt.Errorf("campaign: selectors %q and %q share no comparable groups", aSel, bSel)
	}
	rows := make([]report.CompareRow, 0, len(keys))
	for _, k := range keys {
		name := k
		if name == "" {
			name = "(all)"
		}
		rows = append(rows, report.CompareRow{Name: name, A: a[k].Estimate(), B: b[k].Estimate()})
	}
	t := report.CompareTable(fmt.Sprintf("mean response time: %s vs %s", aSel, bSel), "ms", aSel, bSel, rows)
	return emit(t, csv)
}

func emit(t *report.Table, csv bool) error {
	if csv {
		return t.RenderCSV(os.Stdout)
	}
	return t.Render(os.Stdout)
}

// check exits through fatal on a non-nil error.
func check(err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
