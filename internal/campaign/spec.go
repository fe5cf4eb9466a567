package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"raidsim/internal/array"
	"raidsim/internal/campaign/shard"
	"raidsim/internal/core"
	"raidsim/internal/obs"
	"raidsim/internal/sim"
	"raidsim/internal/specio"
	"raidsim/internal/trace"
	"raidsim/internal/workload"
)

// SpecVersion is the versioned header campaign spec files may carry.
// It is optional (older spec files predate it) but validated when
// present.
const SpecVersion = "raidsim-campaign/1"

// Spec is a declarative parameter grid: the cross product of every
// axis below, replicated Seeds times with derived per-run seeds. Zero
// or empty fields take the defaults documented on each; fixed (non-axis)
// knobs apply to every run. Load one from JSON with LoadSpec or build
// it programmatically and call Points.
type Spec struct {
	// Version is the optional "spec" header; SpecVersion when present.
	Version string `json:"spec,omitempty"`
	// Name identifies the campaign (journal header, report titles).
	Name string `json:"name"`

	// Traces lists the workloads to sweep: built-in names (trace1,
	// trace2, dss, diurnal) or .json workload-spec paths; default
	// trace2. Scale shrinks the generated traces (default 0.1; the
	// arrival rate — the operating point — is preserved), and Speeds
	// multiplies the arrival rate (default {1}).
	Traces []string  `json:"traces,omitempty"`
	Scale  float64   `json:"scale,omitempty"`
	Speeds []float64 `json:"speeds,omitempty"`

	// Orgs lists the organizations to sweep; required.
	Orgs []string `json:"orgs"`
	// N lists data disks per array; default {10}.
	N []int `json:"n,omitempty"`
	// CacheMB lists per-array NV cache sizes; 0 means non-cached.
	// Default {0}.
	CacheMB []int `json:"cache_mb,omitempty"`
	// StripingUnit lists striping units in blocks; 0 means the
	// organization's default. Default {0}.
	StripingUnit []int `json:"striping_unit,omitempty"`

	// Seeds is the number of replications per grid cell (>= 1, default
	// 1); Seed is the campaign base seed every per-run seed derives
	// from (default 1).
	Seeds int    `json:"seeds,omitempty"`
	Seed  uint64 `json:"seed,omitempty"`

	// Sync is a fixed parity-sync policy for every run ("" = the
	// organization default).
	Sync string `json:"sync,omitempty"`
	// ObsWindowS arms the windowed observability recorder in every run
	// at this window width in seconds (0 = off); per-run series merge
	// into the fleet series via Options.OnResult consumers.
	ObsWindowS float64 `json:"obs_window_s,omitempty"`
	// Workers is the default worker-pool width for this spec (0 =
	// GOMAXPROCS); command-line flags override it.
	Workers int `json:"workers,omitempty"`
}

// LoadSpec reads a Spec from a JSON file, rejecting unknown fields so
// a typoed axis name fails instead of silently sweeping nothing.
func LoadSpec(path string) (Spec, error) {
	var s Spec
	if err := specio.Load(path, specio.Header{Want: SpecVersion}, &s); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// ParseSpec decodes a Spec from JSON with the same strict key and
// header checking as LoadSpec.
func ParseSpec(r io.Reader) (Spec, error) {
	var s Spec
	if err := specio.Parse(r, "campaign spec", specio.Header{Want: SpecVersion}, &s); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// fill applies the documented defaults in place.
func (s *Spec) fill() {
	if s.Name == "" {
		s.Name = "campaign"
	}
	if len(s.Traces) == 0 {
		s.Traces = []string{"trace2"}
	}
	if s.Scale <= 0 {
		s.Scale = 0.1
	}
	if len(s.Speeds) == 0 {
		s.Speeds = []float64{1}
	}
	if len(s.N) == 0 {
		s.N = []int{10}
	}
	if len(s.CacheMB) == 0 {
		s.CacheMB = []int{0}
	}
	if len(s.StripingUnit) == 0 {
		s.StripingUnit = []int{0}
	}
	if s.Seeds <= 0 {
		s.Seeds = 1
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
}

// Validate reports spec errors (unknown organizations, traces, bad
// ranges) without expanding the grid.
func (s Spec) Validate() error {
	s.fill()
	if len(s.Orgs) == 0 {
		return fmt.Errorf("campaign: spec needs at least one organization in orgs")
	}
	for _, o := range s.Orgs {
		if _, err := array.ParseOrg(o); err != nil {
			return err
		}
	}
	for _, name := range s.Traces {
		if err := validateTrace(name); err != nil {
			return err
		}
	}
	if s.Sync != "" {
		if _, err := array.ParseSyncPolicy(s.Sync); err != nil {
			return err
		}
	}
	for _, n := range s.N {
		if n < 2 {
			return fmt.Errorf("campaign: n %d out of range (need >= 2)", n)
		}
	}
	for _, mb := range s.CacheMB {
		if mb < 0 {
			return fmt.Errorf("campaign: negative cache_mb %d", mb)
		}
	}
	for _, su := range s.StripingUnit {
		if su < 0 {
			return fmt.Errorf("campaign: negative striping_unit %d", su)
		}
	}
	for _, sp := range s.Speeds {
		if sp <= 0 {
			return fmt.Errorf("campaign: speed %g out of range (need > 0)", sp)
		}
	}
	return nil
}

// size returns the number of runs the spec expands to.
func (s Spec) size() int {
	s.fill()
	return len(s.Traces) * len(s.Speeds) * len(s.Orgs) * len(s.N) *
		len(s.CacheMB) * len(s.StripingUnit) * s.Seeds
}

// validateTrace checks a traces-axis entry: a built-in workload name or
// a .json workload-spec path (loaded and validated without generating).
func validateTrace(name string) error {
	sp, err := workload.Resolve(name)
	if err != nil {
		return fmt.Errorf("campaign: trace %q: %w", name, err)
	}
	if err := sp.Validate(); err != nil {
		return fmt.Errorf("campaign: trace %q: %w", name, err)
	}
	return nil
}

// Points expands the grid into runs, in deterministic nested-loop order
// (trace, speed, org, n, cache, striping unit, seed — slowest axis
// first). Each point's ID is its sorted axis assignment; its seed
// derives from the base seed keyed on that ID, so editing the grid
// never reseeds surviving runs. Traces are generated once per
// (trace, speed) pair and shared across points. A point that sets what
// its organization does not read (core.Config.Unread) is an error.
func (s Spec) Points() ([]Point, error) {
	s.fill()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var syncPol array.SyncPolicy
	if s.Sync != "" {
		syncPol, _ = array.ParseSyncPolicy(s.Sync)
	}
	traces := make(map[string]*trace.Trace)
	getTrace := func(name string, speed float64) (*trace.Trace, error) {
		key := fmt.Sprintf("%s@%g", name, speed)
		if t, ok := traces[key]; ok {
			return t, nil
		}
		base, ok := traces[name+"@1"]
		if !ok {
			var err error
			base, err = workload.ResolveTrace(name, s.Scale)
			if err != nil {
				return nil, fmt.Errorf("campaign: generating %s: %w", name, err)
			}
			traces[name+"@1"] = base
		}
		if speed == 1 {
			return base, nil
		}
		t, err := base.Scale(speed)
		if err != nil {
			return nil, fmt.Errorf("campaign: scaling %s to %gx: %w", name, speed, err)
		}
		traces[key] = t
		return t, nil
	}

	var out []Point
	for _, tn := range s.Traces {
		for _, speed := range s.Speeds {
			tr, err := getTrace(tn, speed)
			if err != nil {
				return nil, err
			}
			for _, orgName := range s.Orgs {
				org, err := array.ParseOrg(orgName)
				if err != nil {
					return nil, err
				}
				for _, n := range s.N {
					for _, mb := range s.CacheMB {
						for _, su := range s.StripingUnit {
							for rep := 0; rep < s.Seeds; rep++ {
								params := map[string]string{
									"trace": tn,
									"org":   org.String(),
									"n":     fmt.Sprintf("%d", n),
									"cache": fmt.Sprintf("%d", mb),
									seedKey: fmt.Sprintf("%d", rep),
								}
								if speed != 1 {
									params["speed"] = fmt.Sprintf("%g", speed)
								}
								if su != 0 {
									params["su"] = fmt.Sprintf("%d", su)
								}
								id := paramKey(params, false)

								cfg := core.DefaultConfig(org)
								cfg.DataDisks = tr.NumDisks
								cfg.N = n
								if mb > 0 {
									cfg.Cached = true
									cfg.CacheMB = mb
								}
								// mb == 0 leaves DefaultConfig's choice: non-cached,
								// except RAID4, which the model only studies cached.
								if su > 0 {
									cfg.StripingUnit = su
								}
								if s.Sync != "" {
									cfg.Sync = syncPol
								}
								if err := cfg.Unread(core.DefaultConfig(org)); err != nil {
									return nil, fmt.Errorf("campaign: point %s: %w", id, err)
								}
								if s.ObsWindowS > 0 {
									cfg.Obs = obs.Config{Window: sim.Time(s.ObsWindowS * float64(sim.Second))}
								}
								// One run = one engine: the campaign pool owns
								// cross-run parallelism, so arrays within a run
								// simulate sequentially.
								cfg.Workers = 1
								cfg.Seed = shard.SeedFor(s.Seed, id)
								out = append(out, Point{ID: id, Params: params, Config: cfg, Trace: tr})
							}
						}
					}
				}
			}
		}
	}
	return sortPointsStable(out), nil
}

// sortPointsStable orders points by ID so the expanded grid has one
// canonical order regardless of axis nesting; execution order then
// matches journal-replay and merge order. It sorts an index permutation
// and builds the output in one pass, so each Point (with its
// core.Config) is copied once instead of at every merge step.
func sortPointsStable(ps []Point) []Point {
	order := make([]int, len(ps))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return strings.Compare(ps[a].ID, ps[b].ID) })
	out := make([]Point, len(ps))
	for i, k := range order {
		out[i] = ps[k]
	}
	return out
}

// Hash fingerprints the grid-defining fields of the spec; journals
// store it so a resume against an edited grid that would re-key runs is
// refused instead of silently mixing results. Name, Workers and
// rendering knobs are excluded — they don't affect run identity. For
// .json workload-spec traces the referenced file's content is part of
// the fingerprint, so editing the workload also invalidates resumes.
func (s Spec) Hash() uint64 {
	s.fill()
	var traceSpecs []string
	for _, name := range s.Traces {
		if !strings.HasSuffix(name, ".json") {
			continue
		}
		raw, err := os.ReadFile(name)
		if err != nil {
			raw = []byte("unreadable: " + err.Error())
		}
		traceSpecs = append(traceSpecs, fmt.Sprintf("%s=%d", name, shard.SeedFor(0xdeed, string(raw))))
	}
	canon := struct {
		Traces     []string
		TraceSpecs []string
		Scale      float64
		Speeds     []float64
		Orgs       []string
		N          []int
		CacheMB    []int
		SU         []int
		Seeds      int
		Seed       uint64
		Sync       string
		ObsS       float64
	}{s.Traces, traceSpecs, s.Scale, s.Speeds, s.Orgs, s.N, s.CacheMB, s.StripingUnit, s.Seeds, s.Seed, s.Sync, s.ObsWindowS}
	raw, _ := json.Marshal(canon)
	return shard.SeedFor(0xcafe, string(raw))
}
