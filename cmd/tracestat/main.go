// Command tracestat prints Table 2-style characteristics of a trace file
// (or a built-in profile), including the per-disk access distribution
// behind Figure 6.
//
// Examples:
//
//	tracestat t1.bin
//	tracestat -per-disk t2.txt
//	tracestat -profile trace1 -scale 0.1
//	tracestat -spans spans.json
package main

import (
	"flag"
	"fmt"
	"os"

	"raidsim/internal/trace"
	"raidsim/internal/workload"
)

func main() {
	var (
		profile  = flag.String("profile", "", "analyze a built-in profile instead of a file")
		scale    = flag.Float64("scale", 1.0, "scale for -profile")
		perDisk  = flag.Bool("per-disk", false, "print the per-disk access histogram")
		analyze  = flag.Bool("analyze", false, "print arrival/locality/spatial analysis")
		hitCurve = flag.Bool("hit-curve", false, "print the predicted hit-ratio curve from stack distances")
		spans    = flag.Bool("spans", false, "analyze a span export from raidsim -trace-spans (Chrome trace-event JSON)")
	)
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
	case *profile != "":
		var p workload.Profile
		switch *profile {
		case "trace1":
			p = workload.Trace1Profile()
		case "trace2":
			p = workload.Trace2Profile()
		default:
			fatal(fmt.Errorf("unknown profile %q", *profile))
		}
		tr, err = workload.Generate(p.Scaled(*scale))
	case flag.NArg() == 1:
		tr, err = load(flag.Arg(0))
	default:
		fatal(fmt.Errorf("usage: tracestat [-per-disk] <trace-file> | tracestat -profile trace1"))
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

func load(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var magic [6]byte
	if _, err := f.ReadAt(magic[:], 0); err == nil && string(magic[:5]) == "RSTB1" {
		return trace.ReadBinary(f)
	}
	return trace.ReadText(f)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracestat:", err)
	os.Exit(1)
}
