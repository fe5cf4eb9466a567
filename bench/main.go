// Command raidbench is raidsim's benchmark. It runs the simulator as a
// library on five named workloads and reports end-to-end host-time and
// memory metrics, or, traced, per-layer metrics measured by timing its
// own calls into raidsim's packages. See README.md for every metric's
// definition and the regression rule; BENCHMARK.json at the repository
// root lists them for automated runs.
//
// Build and run it from the repository root with bash bench/run.sh:
//
//	run.sh --workload W --seed N --seconds S --trace 0|1   one workload; last line is a JSON result
//	run.sh [-reps 5] [-seed N]                             every workload in child processes -> bench/out/result.json
//	run.sh -trace 1                                        traced run of every workload -> bench/out/{trace,layers}.json
//	run.sh -compare A.json B.json                          parent-vs-change verdicts
//	run.sh -update-golden                                  rewrite bench/golden.json (benchmark-changing changes only)
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
)

// runSeconds is the default measurement window; BENCHMARK.json's
// run_seconds must equal it.
const runSeconds = 20

// goldenPath and outDir are relative to the repository root that run.sh
// runs from: where -update-golden writes, and where results, traces and
// temporary journals go.
const (
	goldenPath = "bench/golden.json"
	outDir     = "bench/out"
)

//go:embed golden.json
var goldenRaw []byte

// goldens are the simulated-output fingerprints of every run at seed 0,
// at full and at smoke size, plus the smoke test's events-per-request
// ceilings.
type goldens struct {
	Full        map[string]map[string]string `json:"full"`
	Smoke       map[string]map[string]string `json:"smoke"`
	SmokeEvents map[string]float64           `json:"smoke_events_per_req"`
}

func loadGoldens() (goldens, error) {
	var g goldens
	if err := json.Unmarshal(goldenRaw, &g); err != nil {
		return g, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("raidbench", flag.ContinueOnError)
	name := fs.String("workload", "", "run this workload only, in this process; empty runs every workload in child processes")
	seed := fs.Uint64("seed", 0, "workload-generation and simulation seed; 0 keeps the built-in seeds the goldens are for")
	seconds := fs.Float64("seconds", runSeconds, "host seconds of whole passes each workload invocation measures")
	traceMode := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics; end-to-end metrics come only from untraced runs")
	reps := fs.Int("reps", 5, "child processes per workload when running every workload")
	compare := fs.Bool("compare", false, "compare two result.json files given as arguments: parent, then change")
	update := fs.Bool("update-golden", false, "rewrite "+goldenPath+" from seed-0 runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(workers)
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "raidbench:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two result.json files"))
		}
		worse, err := compareFiles(fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	}
	if *traceMode != 0 && *traceMode != 1 {
		return fail(fmt.Errorf("-trace must be 0 or 1"))
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fail(err)
	}
	if *update {
		if err := updateGoldens(); err != nil {
			return fail(err)
		}
		return 0
	}
	if *name == "" {
		var err error
		ok := false
		if *traceMode == 1 {
			ok, err = traceAll(*seed)
		} else {
			ok, err = runAll(*reps, *seed, *seconds)
		}
		if err != nil {
			return fail(err)
		}
		if !ok {
			return 1
		}
		return 0
	}

	w, err := findWorkload(*name)
	if err != nil {
		return fail(err)
	}
	g, err := loadGoldens()
	if err != nil {
		return fail(err)
	}
	var want map[string]string
	if *seed == 0 {
		want = g.Full[w.name]
	}
	var res *result
	defs := endToEnd
	if *traceMode == 1 {
		defs = perLayer
		res, err = traced(w, *seed, false, outDir, want)
	} else {
		var digest string
		res, digest, err = measure(w, *seed, *seconds, want)
		if err == nil {
			fmt.Printf("fingerprint %s seed=%d %s\n", w.name, *seed, digest)
		}
	}
	if err != nil {
		return fail(err)
	}
	for _, d := range defs {
		fmt.Printf("%s %s %s %s (%s)\n", d.name, w.name, strconv.FormatFloat(res.Metrics[d.name].Value, 'g', -1, 64), d.unit, d.clock)
	}
	fmt.Printf("ops_failed %s %d of %d runs (exact)\n", w.name, res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// updateGoldens runs every workload once at seed 0, at full and smoke
// size, and rewrites goldenPath with the fingerprints.
func updateGoldens() error {
	g := goldens{Full: map[string]map[string]string{}, Smoke: map[string]map[string]string{}, SmokeEvents: map[string]float64{}}
	for i := range workloads {
		w := &workloads[i]
		for _, smoke := range []bool{false, true} {
			in, err := w.setup(0, smoke)
			if err != nil {
				return err
			}
			o, err := in.pass(nil, nil, outDir, nil)
			if err != nil {
				return err
			}
			if n := o.failed(nil); n > 0 {
				return fmt.Errorf("%s: %d runs failed: %v", w.name, n, o.bad)
			}
			if smoke {
				g.Smoke[w.name] = o.fps
				g.SmokeEvents[w.name] = float64(o.events) / float64(o.requests)
			} else {
				g.Full[w.name] = o.fps
			}
			fmt.Printf("%s smoke=%v: %d runs, digest %s\n", w.name, smoke, o.attempted, o.digest())
		}
		runtime.GC()
	}
	return writeJSON(goldenPath, g)
}
