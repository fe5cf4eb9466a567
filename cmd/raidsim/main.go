// Command raidsim runs one disk array simulation and prints its results:
// response-time statistics, hit ratios, and per-disk utilization. The
// workload comes from a trace file (text or binary, see cmd/tracegen),
// a built-in workload name, or a declarative multi-client workload spec
// (a .json file; see examples/workloads).
//
// Examples:
//
//	raidsim -workload trace2 -org raid5 -n 10
//	raidsim -workload trace1 -scale 0.05 -org raid4 -cached -cache-mb 32
//	raidsim -workload diurnal -scale 0.2 -org raid5 -cached -obs-window 30s
//	raidsim -workload examples/workloads/diurnal.json -org mirror -deadline 80ms
//	raidsim -trace t.bin -org pstripe -placement end -sync rfpr
//	raidsim -workload trace2 -org raid5 -obs-window 1s -obs-trace 256 -obs-jsonl events.jsonl
//	raidsim -workload trace2 -org raid5 -cached -trace-spans spans.json -http :8080
//	raidsim -workload trace2 -org raid5 -self-metrics
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"raidsim/internal/array"
	"raidsim/internal/cliflag"
	"raidsim/internal/core"
	"raidsim/internal/fault"
	"raidsim/internal/obs"
	"raidsim/internal/report"
	"raidsim/internal/sim"
	"raidsim/internal/trace"
)

func main() {
	var (
		tracePath = flag.String("trace", "", "trace file to replay (text or binary); empty = generate -workload")
		speed     = flag.Float64("speed", 1, "trace speed factor (2 = twice the load)")
		perDisk   = flag.Bool("per-disk", false, "print per-disk access counts and utilization")
		mpl       = flag.Int("mpl", 0, "closed-loop mode: keep this many requests outstanding per array (0 = replay trace timing)")
		thinkMS   = flag.Float64("think-ms", 0, "closed-loop think time between completion and next request")

		mttrHours = flag.Float64("mttr-hours", 24, "mean repair time for the -mttdl-runs campaign")
		mttdlRuns = flag.Int("mttdl-runs", 0, "run a Monte-Carlo MTTDL campaign with this many lifetimes instead of a trace replay")

		obsCSV   = flag.String("obs-csv", "", "write the windowed time series to this CSV file")
		obsJSONL = flag.String("obs-jsonl", "", "write the retained observability events to this JSONL file")

		traceSpans = flag.String("trace-spans", "", "export retained span trees to this file as Chrome trace-event JSON for Perfetto")
		httpAddr   = flag.String("http", "", "serve live /metrics (Prometheus text) and /debug/pprof on this address during the run (e.g. :8080)")
		httpHold   = flag.Duration("http-hold", 0, "keep the -http server (and process) alive this long after the run completes")
	)
	bind := cliflag.Bind(flag.CommandLine)
	wl := cliflag.BindWorkload(flag.CommandLine, 0.1)
	prof := cliflag.BindProfile(flag.CommandLine)
	flag.Parse()

	cfg, err := bind.Config()
	check(err)
	// -trace-spans implies the tracer; default to the slowest 8 per class
	// unless -trace-topk chose a depth.
	if *traceSpans != "" && cfg.Obs.SpanTopK == 0 {
		cfg.Obs.SpanTopK = 8
	}
	var httpSrv *obs.Server
	if *httpAddr != "" {
		live := obs.NewLive()
		cfg.Obs.Live = live
		httpSrv, err = obs.Serve(*httpAddr, live)
		check(err)
		fmt.Printf("serving metrics on http://%s/metrics (pprof on /debug/pprof/)\n", httpSrv.Addr)
		defer func() {
			if *httpHold > 0 {
				fmt.Printf("holding -http server for %v\n", *httpHold)
				time.Sleep(*httpHold)
			}
			if err := httpSrv.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "raidsim:", err)
			}
		}()
	}
	check(prof.Start())
	defer func() {
		if err := prof.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "raidsim:", err)
		}
	}()

	if *mttdlRuns > 0 {
		runCampaign(cfg, *mttrHours, *mttdlRuns)
		return
	}

	var tr *trace.Trace
	if *tracePath != "" {
		tr, err = trace.ReadFile(*tracePath)
	} else {
		tr, err = wl.Generate("trace2")
	}
	check(err)
	if *speed != 1 {
		tr, err = tr.Scale(*speed)
		check(err)
	}
	cfg.DataDisks = tr.NumDisks

	if *mpl > 0 {
		res, err := core.RunClosedLoop(cfg, tr, core.ClosedLoopConfig{
			MPL:       *mpl,
			ThinkTime: sim.Time(*thinkMS * float64(sim.Millisecond)),
		})
		check(err)
		printResults(cfg, tr, &res.Results, *perDisk)
		fmt.Printf("closed loop: MPL=%d throughput %.1f req/s (makespan %.1fs)\n",
			*mpl, res.Throughput(), float64(res.Makespan)/float64(sim.Second))
		printObs(&res.Results, *obsCSV, *obsJSONL)
		printSpans(&res.Results, *traceSpans)
		return
	}
	res, err := core.Run(cfg, tr)
	check(err)
	printResults(cfg, tr, res, *perDisk)
	printObs(res, *obsCSV, *obsJSONL)
	printSpans(res, *traceSpans)
}

// printSpans renders the tail-anatomy table and exports the retained span
// trees (tail requests plus background activity) as Chrome trace-event
// JSON, loadable in Perfetto / chrome://tracing.
func printSpans(res *core.Results, path string) {
	if len(res.TailSpans) == 0 && len(res.BgSpans) == 0 {
		return
	}
	check(report.TailTable("tail anatomy: slowest requests per class", res.TailSpans).Render(os.Stdout))
	if path == "" {
		return
	}
	samples := append(append([]obs.SpanSample(nil), res.TailSpans...), res.BgSpans...)
	writeFile(path, func(w io.Writer) error { return obs.WriteSpansChrome(w, samples) })
	fmt.Printf("span trace: %d request + %d background trees -> %s (%d background trees dropped)\n\n",
		len(res.TailSpans), len(res.BgSpans), path, res.SpanTreesDropped)
}

// printObs renders the windowed time series (table + ASCII plot) and
// writes the optional CSV / JSONL artifacts.
func printObs(res *core.Results, csvPath, jsonlPath string) {
	if res.Series != nil {
		if res.Series.Len() > 1 {
			check(report.SeriesFigure("response over time", res.Series).RenderPlot(os.Stdout))
		}
		check(report.SeriesTable("windowed time series", res.Series).Render(os.Stdout))
		if ct := report.ClassSeriesTable("per-class time series", res.Series); ct != nil {
			check(ct.Render(os.Stdout))
		}
		if csvPath != "" {
			writeFile(csvPath, res.Series.WriteCSV)
		}
	}
	if len(res.ObsEvents) > 0 {
		if jsonlPath == "" {
			fmt.Printf("event trace: %d events retained (%d dropped); write them with -obs-jsonl\n\n",
				len(res.ObsEvents), res.ObsEventsDropped)
			return
		}
		writeFile(jsonlPath, func(w io.Writer) error { return obs.WriteJSONL(w, res.ObsEvents) })
		fmt.Printf("event trace: %d events -> %s (%d dropped)\n\n",
			len(res.ObsEvents), jsonlPath, res.ObsEventsDropped)
	}
}

func printResults(cfg core.Config, tr *trace.Trace, res *core.Results, perDisk bool) {
	t := &report.Table{
		Title:   fmt.Sprintf("raidsim: %s, N=%d, %d arrays, %d drives, trace %s (%d requests)", cfg.Org, cfg.N, res.Arrays, cfg.PhysicalDisks(), tr.Name, res.Requests),
		Columns: []string{"metric", "value"},
	}
	t.AddRow("mean response (ms)", fmt.Sprintf("%.3f", res.Resp.Mean()))
	t.AddRow("read response (ms)", fmt.Sprintf("%.3f", res.ReadResp.Mean()))
	t.AddRow("write response (ms)", fmt.Sprintf("%.3f", res.WriteResp.Mean()))
	t.AddRow("p50 response (ms)", fmt.Sprintf("%.3f", res.Resp.Quantile(0.5)))
	t.AddRow("p95 response (ms)", fmt.Sprintf("%.3f", res.Resp.Quantile(0.95)))
	t.AddRow("p99 response (ms)", fmt.Sprintf("%.3f", res.Resp.Quantile(0.99)))
	t.AddRow("max response (ms)", fmt.Sprintf("%.3f", res.Resp.Max()))
	if cfg.Cached {
		t.AddRow("read hit ratio", fmt.Sprintf("%.4f", res.ReadHitRatio()))
		t.AddRow("write hit ratio", fmt.Sprintf("%.4f", res.WriteHitRatio()))
		t.AddRow("destages", fmt.Sprintf("%d", res.Cache.Destages))
		t.AddRow("dirty evictions", fmt.Sprintf("%d", res.Cache.DirtyEvictions))
		if cfg.Org == array.OrgRAID4 {
			t.AddRow("parity queued", fmt.Sprintf("%d", res.Cache.ParityQueued))
			t.AddRow("parity stalls", fmt.Sprintf("%d", res.Cache.ParityStalls))
			t.AddRow("peak parity in cache", fmt.Sprintf("%d", res.Cache.PeakParity))
		}
	}
	t.AddRow("mean seek distance (cyl)", fmt.Sprintf("%.1f", res.SeekDistMean))
	t.AddRow("held rotations", fmt.Sprintf("%d", res.HeldRotations))
	t.AddRow("parity accesses", fmt.Sprintf("%d", res.ParityAccesses))
	if tot := res.Stages.Total(); tot > 0 {
		stage := func(name string, ms float64) {
			t.AddRow("  "+name, fmt.Sprintf("%.1f s (%.1f%%)", ms/1e3, 100*ms/tot))
		}
		t.AddRow("stage breakdown", fmt.Sprintf("%.1f disk-seconds", tot/1e3))
		stage("queue wait", res.Stages.QueueMS)
		stage("seek + rotate", res.Stages.SeekRotateMS)
		stage("transfer", res.Stages.TransferMS)
		stage("parity sync", res.Stages.ParitySyncMS)
		stage("destage stall", res.Stages.DestageStallMS)
	}
	t.AddRow("events simulated", fmt.Sprintf("%d", res.Events))
	// Gated on the flag: host-timing rows belong on stdout only when
	// asked for (plain output must stay diffable across hosts and worker
	// counts).
	if cfg.SelfMetrics && res.Engine.Events > 0 {
		t.AddRow("engine events/s (host)", fmt.Sprintf("%.0f", res.Engine.EventsPerSec()))
		t.AddRow("engine busy (ms)", fmt.Sprintf("%.1f", float64(res.Engine.WallNS)/1e6))
		t.AddRow("event heap high-water", fmt.Sprintf("%d", res.Engine.HeapHighWater))
		t.AddRow("call free-list hit ratio", fmt.Sprintf("%.4f (%d/%d)", res.Engine.CallHitRatio(),
			res.Engine.CallHits, res.Engine.CallHits+res.Engine.CallMisses))
		t.AddRow("metered allocations", fmt.Sprintf("%d B in %d mallocs", res.Engine.AllocBytes, res.Engine.Mallocs))
	}
	var usum, umax float64
	for _, u := range res.DiskUtil {
		usum += u
		if u > umax {
			umax = u
		}
	}
	t.AddRow("mean disk utilization", fmt.Sprintf("%.4f", usum/float64(len(res.DiskUtil))))
	t.AddRow("max disk utilization", fmt.Sprintf("%.4f", umax))
	if f := res.Fault; f.Enabled {
		t.AddRow("disk failures", fmt.Sprintf("%d", f.Failures))
		t.AddRow("spares used", fmt.Sprintf("%d / rebuilds %d", f.SparesUsed, f.Rebuilds))
		if f.Rebuilds > 0 || f.RebuildActive {
			state := "done"
			if f.RebuildActive {
				state = "still running"
			}
			t.AddRow("rebuild time (s)", fmt.Sprintf("%.1f (%s)", float64(f.RebuildTime)/float64(sim.Second), state))
		}
		t.AddRow("degraded time (s)", fmt.Sprintf("%.1f over %d window(s)", float64(f.DegradedTime)/float64(sim.Second), f.DegradedWindows))
		t.AddRow("normal response (ms)", fmt.Sprintf("%.3f (%d reqs)", res.NormalResp.Mean(), res.NormalResp.N()))
		t.AddRow("degraded response (ms)", fmt.Sprintf("%.3f (%d reqs)", res.DegradedResp.Mean(), res.DegradedResp.N()))
		if f.DataLossEvents > 0 || f.LostReadBlocks > 0 || f.LostWriteBlocks > 0 {
			t.AddRow("DATA LOSS events", fmt.Sprintf("%d (%d read / %d write blocks)", f.DataLossEvents, f.LostReadBlocks, f.LostWriteBlocks))
		}
		if f.CacheFailures > 0 {
			t.AddRow("cache failures", fmt.Sprintf("%d (%d dirty blocks lost)", f.CacheFailures, f.DirtyBlocksLost))
		}
		if f.SectorErrors > 0 {
			t.AddRow("sector errors", fmt.Sprintf("%d (%d retried, %d reconstructed)", f.SectorErrors, f.SectorRetries, f.SectorReconstructs))
		}
		if f.FailoverReads > 0 {
			t.AddRow("failover reads", fmt.Sprintf("%d", f.FailoverReads))
		}
		if f.SickOnsets > 0 {
			t.AddRow("sick-disk episodes", fmt.Sprintf("%d onset(s), %d cleared", f.SickOnsets, f.SickClears))
			if f.Hangs > 0 {
				t.AddRow("sick-disk hangs", fmt.Sprintf("%d", f.Hangs))
			}
			if f.TransientErrors > 0 {
				t.AddRow("transient read errors", fmt.Sprintf("%d", f.TransientErrors))
			}
		}
	}
	check(t.Render(os.Stdout))

	if res.Robust.Enabled {
		check(report.RobustTable("request robustness (SLO)", &res.Robust).Render(os.Stdout))
	}

	if ct := report.ClassTable("per-class results (workload clients)", res.Classes); ct != nil {
		check(ct.Render(os.Stdout))
	}

	if perDisk {
		d := &report.Table{
			Title:   "per-disk activity",
			Columns: []string{"disk", "accesses", "utilization"},
		}
		for i := range res.DiskAccesses {
			d.AddRow(fmt.Sprintf("%d", i), fmt.Sprintf("%d", res.DiskAccesses[i]), fmt.Sprintf("%.4f", res.DiskUtil[i]))
		}
		check(d.Render(os.Stdout))
	}
}

// runCampaign runs the Monte-Carlo MTTDL campaign for -mttdl-runs and
// prints the empirical mean next to the analytic Markov predictions.
func runCampaign(cfg core.Config, mttrHours float64, runs int) {
	mttfHours := float64(cfg.Fault.MTTF) / (3600 * float64(sim.Second))
	if mttfHours <= 0 {
		fatal(fmt.Errorf("-mttdl-runs needs -mttf-hours"))
	}
	scheme := fault.ParityArray
	switch cfg.Org.Redundancy() {
	case array.Mirrored:
		scheme = fault.MirrorPair
	case array.NoRedundancy:
		fatal(fmt.Errorf("organization %v has no redundancy to measure MTTDL for", cfg.Org))
	}
	res, err := fault.RunCampaign(fault.CampaignConfig{
		Scheme: scheme, N: cfg.N,
		MTTFHours: mttfHours, MTTRHours: mttrHours,
		Runs: runs, Seed: cfg.Fault.Seed,
	})
	check(err)
	t := &report.Table{
		Title:   fmt.Sprintf("MTTDL campaign: %s (%s), MTTF %gh, MTTR %gh, %d lifetimes", cfg.Org, scheme, mttfHours, mttrHours, runs),
		Columns: []string{"metric", "value"},
	}
	t.AddRow("empirical MTTDL (h)", fmt.Sprintf("%.0f", res.EmpiricalMTTDLHours))
	t.AddRow("exact Markov MTTDL (h)", fmt.Sprintf("%.0f", res.ExactMTTDLHours))
	t.AddRow("approximate MTTDL (h)", fmt.Sprintf("%.0f", res.AnalyticMTTDLHours))
	t.AddRow("empirical / exact", fmt.Sprintf("%.3f", res.Ratio()))
	t.AddRow("shortest lifetime (h)", fmt.Sprintf("%.1f", res.MinHours))
	t.AddRow("longest lifetime (h)", fmt.Sprintf("%.0f", res.MaxHours))
	t.AddRow("empirical MTTDL (years)", fmt.Sprintf("%.1f", res.EmpiricalMTTDLHours/(24*365)))
	check(t.Render(os.Stdout))
}

// check exits through fatal on a non-nil error.
func check(err error) {
	if err != nil {
		fatal(err)
	}
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	check(err)
	check(write(f))
	check(f.Close())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "raidsim:", err)
	os.Exit(1)
}
