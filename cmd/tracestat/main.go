// Command tracestat prints Table 2-style characteristics of a trace file
// (text or binary, see cmd/tracegen) or of a generated workload (a
// built-in name or a .json spec), including the per-disk access
// distribution behind Figure 6.
//
// Examples:
//
//	tracestat t1.bin
//	tracestat -per-disk t2.txt
//	tracestat -workload trace1 -scale 0.1
//	tracestat -workload examples/workloads/diurnal.json -scale 0.02
//	tracestat -spans spans.json
package main

import (
	"flag"
	"fmt"
	"os"

	"raidsim/internal/cliflag"
	"raidsim/internal/trace"
)

func main() {
	var (
		perDisk  = flag.Bool("per-disk", false, "print the per-disk access histogram")
		analyze  = flag.Bool("analyze", false, "print arrival/locality/spatial analysis")
		hitCurve = flag.Bool("hit-curve", false, "print the predicted hit-ratio curve from stack distances")
		spans    = flag.Bool("spans", false, "analyze a span export from raidsim -trace-spans (Chrome trace-event JSON)")
	)
	wl := cliflag.BindWorkload(flag.CommandLine, 1.0)
	flag.Parse()

	if *spans {
		if flag.NArg() != 1 {
			fatal(fmt.Errorf("usage: tracestat -spans <spans.json>"))
		}
		runSpans(flag.Arg(0))
		return
	}

	var tr *trace.Trace
	var err error
	switch {
	case wl.Selected() && flag.NArg() == 0:
		tr, err = wl.Generate("")
	case !wl.Selected() && flag.NArg() == 1:
		tr, err = trace.ReadFile(flag.Arg(0))
	default:
		fatal(fmt.Errorf("usage: tracestat [-per-disk] <trace-file> | tracestat -workload <name|spec.json>"))
	}
	if err != nil {
		fatal(err)
	}

	c := trace.Characterize(tr)
	fmt.Print(c)
	if *analyze {
		fmt.Println("analysis:")
		fmt.Print(trace.Analyze(tr))
	}
	if *hitCurve {
		a := trace.Analyze(tr)
		dists := trace.StackDistances(tr, 4)
		fmt.Println("predicted read/write-combined hit ratio by cache size (per whole system):")
		for _, mb := range []int{8, 16, 32, 64, 128, 256} {
			blocks := mb << 20 / 4096
			fmt.Printf("  %4d MB  %.3f\n", mb, trace.HitRatioAt(dists, blocks, a.ReReferenceP))
		}
	}
	if *perDisk {
		fmt.Println("disk accesses:")
		for i, n := range c.PerDiskAccesses {
			fmt.Printf("  %4d  %d\n", i, n)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracestat:", err)
	os.Exit(1)
}
