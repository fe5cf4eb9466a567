package cliflag

import (
	"flag"
	"strings"

	"raidsim/internal/trace"
	"raidsim/internal/workload"
)

// WorkloadBinding holds the workload-selection flags: which workload to
// generate (built-in name or declarative .json spec) and at what scale.
type WorkloadBinding struct {
	workload *string
	scale    *float64
}

// BindWorkload registers -workload and -scale on fs; scale is the
// command's default -scale.
func BindWorkload(fs *flag.FlagSet, scale float64) *WorkloadBinding {
	return &WorkloadBinding{
		workload: fs.String("workload", "",
			"workload: built-in name ("+strings.Join(workload.BuiltinNames(), ", ")+") or a .json spec path (see examples/workloads)"),
		scale: fs.Float64("scale", scale,
			"scale the generated workload: this fraction of the requests in the same fraction of the duration"),
	}
}

// Selected reports whether -workload was given.
func (b *WorkloadBinding) Selected() bool { return *b.workload != "" }

// Generate resolves the selected workload and generates its trace;
// fallback names the workload when -workload was not set.
func (b *WorkloadBinding) Generate(fallback string) (*trace.Trace, error) {
	name := *b.workload
	if name == "" {
		name = fallback
	}
	return workload.ResolveTrace(name, *b.scale)
}
