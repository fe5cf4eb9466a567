package raidsim_test

import (
	"testing"

	"raidsim/internal/core"
	"raidsim/internal/sim"
	"raidsim/internal/trace"
	"raidsim/internal/workload"
)

// TestSpecPathReproducesEquivalenceGolden re-runs the full equivalence
// matrix with the trace generated through the declarative workload-spec
// path (SpecFromProfile -> Spec.Generate) instead of the profile path.
// Every fingerprint must match the pre-refactor goldens bit-identically:
// the spec compilation, the class table it attaches, and the per-class
// accounting must not perturb a single event, counter, or mean.
func TestSpecPathReproducesEquivalenceGolden(t *testing.T) {
	p := smallProfile()
	p.Requests = 4000
	p.Duration = 240 * sim.Second
	tr, err := workload.SpecFromProfile(p).Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Classes) != 1 || tr.Classes[0].SLO != trace.SLOAuto {
		t.Fatalf("spec-path trace classes = %+v, want one auto class", tr.Classes)
	}
	for _, tc := range equivalenceCases {
		cfg := tc.config()
		res, err := core.Run(cfg, tr)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, ok := equivalenceGolden[tc.name]
		if !ok {
			continue
		}
		if got := fingerprint(res); got != want {
			t.Errorf("%s: spec-path trace drifted from the goldens\n got: %s\nwant: %s", tc.name, got, want)
		}
		// The class table also buys per-class results; the single class
		// must account for exactly the measured requests.
		if len(res.Classes) != 1 {
			t.Fatalf("%s: per-class results = %+v, want one class", tc.name, res.Classes)
		}
		if n := res.Classes[0].Requests; n != res.Resp.N() {
			t.Errorf("%s: class accounted %d requests, results measured %d", tc.name, n, res.Resp.N())
		}
	}
}
