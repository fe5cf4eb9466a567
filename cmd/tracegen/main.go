// Command tracegen synthesizes an OLTP I/O trace from a built-in
// workload or a declarative .json workload spec and writes it in the
// text or binary format that cmd/raidsim and cmd/tracestat consume.
// Multi-client workloads carry their class table through both formats.
// To customize a built-in (seed, write fraction, disk skew, request or
// disk count), write it as a .json spec: see examples/workloads.
//
// Examples:
//
//	tracegen -workload trace2 -o trace2.txt
//	tracegen -workload trace1 -scale 0.1 -format bin -o t1.bin
//	tracegen -workload examples/workloads/diurnal.json -format bin -o diurnal.bin
//	tracegen -validate examples/workloads/diurnal.json
package main

import (
	"flag"
	"fmt"
	"os"

	"raidsim/internal/cliflag"
	"raidsim/internal/trace"
	"raidsim/internal/workload"
)

func main() {
	var (
		validate = flag.String("validate", "", "validate a workload spec file and exit (no trace written)")
		out      = flag.String("o", "-", "output path, - for stdout")
		format   = flag.String("format", "text", "output format: text or bin")
		stats    = flag.Bool("stats", false, "also print Table 2 statistics to stderr")
	)
	wl := cliflag.BindWorkload(flag.CommandLine, 1.0)
	flag.Parse()

	if *validate != "" {
		sp, err := workload.LoadSpec(*validate)
		check(err)
		check(sp.Validate())
		fmt.Printf("%s: ok (%d clients, %d disks, %.0fs horizon, time scale %g)\n",
			*validate, len(sp.Clients), sp.Disks, sp.DurationS, max(sp.TimeScale, 1))
		return
	}

	tr, err := wl.Generate("trace2")
	check(err)
	if *stats {
		fmt.Fprint(os.Stderr, trace.Characterize(tr))
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		check(err)
		defer f.Close()
		w = f
	}
	switch *format {
	case "text":
		err = trace.WriteText(w, tr)
	case "bin":
		err = trace.WriteBinary(w, tr)
	default:
		err = fmt.Errorf("unknown format %q (want text or bin)", *format)
	}
	check(err)
}

// check exits on a non-nil error.
func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}
