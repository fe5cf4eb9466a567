package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// resultFile is bench/out/result.json: every end-to-end metric of every
// workload over the reps, with the environment that produced it.
type resultFile struct {
	Env       envInfo                    `json:"env"`
	Seed      uint64                     `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Reps      int                        `json:"reps"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
}

type workloadResult struct {
	Attempted int `json:"attempted"`
	// OpsFailed counts runs that returned an error, broke an invariant,
	// or whose fingerprint differed from the golden (seed 0) or from the
	// rep's first pass (other seeds).
	OpsFailed int `json:"ops_failed"`
	// Fingerprints is each rep's digest of every run's fingerprint; at a
	// held-out seed a parent and a change must agree on it.
	Fingerprints []string                `json:"fingerprints"`
	Metrics      map[string]*metricStats `json:"metrics"`
}

type metricStats struct {
	Unit    string    `json:"unit"`
	Clock   string    `json:"clock"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

func environment() envInfo {
	e := envInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: workers,
		GoVersion: runtime.Version(), CPU: "unknown", Commit: "unknown"}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}

// child runs this binary on one workload in a fresh process, so each
// invocation's peak RSS is its own, and parses its result line and its
// fingerprint digest. A run whose checks fail exits 1 with a result.
func child(args ...string) (*result, string, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, "", err
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", workers))
	out, err := cmd.Output()
	var exit *exec.ExitError
	if err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1) {
		return nil, "", fmt.Errorf("%v: %w", args, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		return nil, "", fmt.Errorf("%v: no result line (%v): %w", args, jerr, err)
	}
	digest := ""
	for _, l := range lines {
		if f := strings.Fields(l); len(f) == 4 && f[0] == "fingerprint" {
			digest = f[3]
		}
	}
	return &res, digest, nil
}

// runAll runs reps invocations of every workload, one process at a time,
// rotating the workload order each rep so host drift spreads across
// workloads, and writes result.json. It reports whether no run failed.
func runAll(reps int, seed uint64, seconds float64) (bool, error) {
	rf := resultFile{Env: environment(), Seed: seed, Seconds: seconds, Reps: reps, Workloads: map[string]*workloadResult{}}
	samples := map[string]map[string][]float64{}
	for rep := 0; rep < reps; rep++ {
		for i := range workloads {
			w := &workloads[(rep+i)%len(workloads)]
			res, digest, err := child("-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
			if err != nil {
				return false, err
			}
			wr := rf.Workloads[w.name]
			if wr == nil {
				wr = &workloadResult{}
				rf.Workloads[w.name] = wr
				samples[w.name] = map[string][]float64{}
			}
			wr.Attempted += res.Attempted
			wr.OpsFailed += res.Failed
			wr.Fingerprints = append(wr.Fingerprints, digest)
			for _, d := range endToEnd {
				samples[w.name][d.name] = append(samples[w.name][d.name], res.Metrics[d.name].Value)
			}
			fmt.Fprintf(os.Stderr, "rep %d/%d %s: wall_s %.3f, %d/%d runs failed\n",
				rep+1, reps, w.name, res.Metrics["wall_s"].Value, res.Failed, res.Attempted)
		}
	}
	ok := true
	for _, w := range workloads {
		wr := rf.Workloads[w.name]
		wr.Metrics = map[string]*metricStats{}
		for _, d := range endToEnd {
			xs := samples[w.name][d.name]
			ms := &metricStats{Unit: d.unit, Clock: d.clock, Median: quantile(xs, 0.5),
				Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75), N: len(xs), Samples: xs}
			wr.Metrics[d.name] = ms
			fmt.Printf("%s %s %s %s (%s; q1 %s, q3 %s, n=%d)\n", d.name, w.name, fmtNum(ms.Median), d.unit, d.clock,
				fmtNum(ms.Q1), fmtNum(ms.Q3), ms.N)
		}
		fmt.Printf("ops_failed %s %d of %d runs (exact)\n", w.name, wr.OpsFailed, wr.Attempted)
		ok = ok && wr.OpsFailed == 0
	}
	path := filepath.Join(outDir, "result.json")
	if err := writeJSON(path, rf); err != nil {
		return false, err
	}
	fmt.Println("wrote", path)
	return ok, nil
}

func fmtNum(x float64) string { return strconv.FormatFloat(x, 'g', 6, 64) }

// traceAll runs every workload traced in its own process, merges their
// spans into trace.json and their per-layer metrics into layers.json, and
// prints each workload's trace_overhead: traced wall_s over the untraced
// median in result.json minus one (an untraced single-pass child stands
// in when result.json has no median for this seed).
func traceAll(seed uint64) (bool, error) {
	var untraced *resultFile
	var rf resultFile
	if readJSON(filepath.Join(outDir, "result.json"), &rf) == nil && rf.Seed == seed {
		untraced = &rf
	}
	merged := chromeTrace{DisplayTimeUnit: "ms"}
	var reports []layerReport
	ok := true
	s := strconv.FormatUint(seed, 10)
	for i, w := range workloads {
		res, _, err := child("-workload", w.name, "-seed", s, "-trace", "1")
		if err != nil {
			return false, err
		}
		ok = ok && res.Correct
		var rep layerReport
		var ct chromeTrace
		if err := readJSON(filepath.Join(outDir, "layers-"+w.name+".json"), &rep); err != nil {
			return false, err
		}
		if err := readJSON(filepath.Join(outDir, "trace-"+w.name+".json"), &ct); err != nil {
			return false, err
		}
		for _, e := range ct.TraceEvents {
			e.Pid = i + 1
			merged.TraceEvents = append(merged.TraceEvents, e)
		}
		reports = append(reports, rep)

		var base float64
		if untraced != nil && untraced.Workloads[w.name] != nil {
			base = untraced.Workloads[w.name].Metrics["wall_s"].Median
		} else {
			ur, _, err := child("-workload", w.name, "-seed", s, "-seconds", "0", "-trace", "0")
			if err != nil {
				return false, err
			}
			base = ur.Metrics["wall_s"].Value
		}
		fmt.Printf("trace_overhead %s %+.4f (traced wall_s %.4f s / untraced %.4f s - 1, host, reference speed)\n",
			w.name, rep.TracedWallS/base-1, rep.TracedWallS, base)
	}
	if err := writeJSON(filepath.Join(outDir, "trace.json"), merged); err != nil {
		return false, err
	}
	if err := writeJSON(filepath.Join(outDir, "layers.json"), reports); err != nil {
		return false, err
	}
	fmt.Println("wrote", filepath.Join(outDir, "trace.json"), "and", filepath.Join(outDir, "layers.json"))
	return ok, nil
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints, for every end-to-end metric and workload of a
// parent (a) and a change (b), both medians and quartiles, the delta, the
// bound and the verdict, and — with as many samples on each side — the
// share of pairs b won. ops_failed and the fingerprint digests are
// compared too. It reports whether anything is worse.
func compareFiles(pathA, pathB string) (bool, error) {
	var a, b resultFile
	if err := readJSON(pathA, &a); err != nil {
		return false, err
	}
	if err := readJSON(pathB, &b); err != nil {
		return false, err
	}
	anyWorse := false
	fmt.Printf("%-17s %-12s %14s %22s %14s %22s %8s %6s %-10s %s\n",
		"workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "delta", "bound", "verdict", "pairs won")
	for _, w := range workloads {
		wa, wb := a.Workloads[w.name], b.Workloads[w.name]
		if wa == nil || wb == nil {
			continue
		}
		for _, d := range endToEnd {
			ma, mb := wa.Metrics[d.name], wb.Metrics[d.name]
			if ma == nil || mb == nil || ma.Median == 0 {
				continue
			}
			delta := (mb.Median - ma.Median) / ma.Median
			v := verdict(d, ma, mb)
			anyWorse = anyWorse || v == "worse"
			pairs := "-"
			if n := len(ma.Samples); n > 0 && n == len(mb.Samples) {
				won := 0
				for i := range ma.Samples {
					if better(mb.Samples[i], ma.Samples[i], d.better) {
						won++
					}
				}
				pairs = fmt.Sprintf("%d/%d", won, n)
			}
			fmt.Printf("%-17s %-12s %14s %22s %14s %22s %+7.1f%% %5.0f%% %-10s %s\n", w.name, d.name,
				fmtNum(ma.Median), "["+fmtNum(ma.Q1)+", "+fmtNum(ma.Q3)+"]",
				fmtNum(mb.Median), "["+fmtNum(mb.Q1)+", "+fmtNum(mb.Q3)+"]",
				100*delta, 100*d.bound, v, pairs)
		}
		v := "ok"
		if wb.OpsFailed > wa.OpsFailed {
			v = "worse"
			anyWorse = true
		}
		fmt.Printf("%-17s %-12s %14d %22s %14d %22s %8s %6s %-10s\n", w.name, "ops_failed", wa.OpsFailed, "", wb.OpsFailed, "", "", "", v)
		if a.Seed == b.Seed && len(wa.Fingerprints) > 0 && len(wb.Fingerprints) > 0 {
			same := "same"
			if wa.Fingerprints[0] != wb.Fingerprints[0] {
				same = "DIFFERENT"
				anyWorse = true
			}
			fmt.Printf("%-17s %-12s %s at seed %d\n", w.name, "fingerprint", same, a.Seed)
		}
	}
	return anyWorse, nil
}

// verdict applies the regression rule to one metric of one workload: a
// parent (a) whose own quartile spread exceeds the bound, or has too few
// samples to show one, cannot resolve a change unless every change sample
// beats every parent sample; otherwise the change is worse when its
// median is worse by more than the bound.
func verdict(d metricDef, a, b *metricStats) string {
	worse := (b.Median - a.Median) / a.Median
	if d.better == "higher" {
		worse = -worse
	}
	switch {
	case len(a.Samples) < 3 || (a.Q3-a.Q1)/a.Median > d.bound:
		if !allBetter(a.Samples, b.Samples, d.better) {
			return "unresolved"
		}
	case worse > d.bound:
		return "worse"
	}
	return "ok"
}

// better reports whether x beats y in the metric's direction.
func better(x, y float64, dir string) bool {
	if dir == "higher" {
		return x > y
	}
	return x < y
}

func allBetter(a, b []float64, dir string) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range b {
		for _, y := range a {
			if !better(x, y, dir) {
				return false
			}
		}
	}
	return true
}
