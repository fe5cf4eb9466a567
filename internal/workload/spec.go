package workload

import (
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"raidsim/internal/campaign/shard"
	"raidsim/internal/geom"
	"raidsim/internal/sim"
	"raidsim/internal/specio"
	"raidsim/internal/trace"
)

// SpecVersion is the versioned header every workload spec file carries.
const SpecVersion = "raidsim-workload/1"

// Spec is the declarative, compositional workload description: several
// client classes sharing one logical disk space, each with its own
// arrival process, request-size distribution, skew/locality shape,
// read-write mix, and SLO class. It is the multi-client generalization
// of Profile — every built-in profile is expressible as a single-client
// Spec that generates the identical trace — and the JSON form (stdlib
// only, strict keys, versioned header; see LoadSpec) is the file format
// behind `-workload` and campaign workload axes.
//
// Time compression: TimeScale > 1 simulates the same load shape in
// 1/TimeScale of the wall-clock — a 24 h diurnal curve in minutes.
// Request counts and the duration shrink together, so every client's
// arrival rate (the operating point) and its share of each schedule
// phase are preserved; only the horizon compresses.
//
// Seeding: each client's generator stream derives from the spec seed
// keyed on the client's name (unless the client pins its own Seed), so
// adding, removing, or reordering clients never reseeds the others.
type Spec struct {
	// Version is the "spec" header; LoadSpec requires SpecVersion.
	// Programmatic specs may leave it empty.
	Version string `json:"spec,omitempty"`
	Name    string `json:"name"`

	// Disks and BlocksPerDisk shape the logical space all clients share;
	// BlocksPerDisk 0 takes the disk model's geometry.
	Disks         int   `json:"disks"`
	BlocksPerDisk int64 `json:"blocks_per_disk,omitempty"`

	// DurationS is the uncompressed trace horizon in seconds.
	DurationS float64 `json:"duration_s"`
	// TimeScale compresses the horizon: requests/TimeScale arrivals in
	// DurationS/TimeScale seconds. Default (and minimum meaningful) 1.
	TimeScale float64 `json:"time_scale,omitempty"`
	// Seed is the spec-level seed per-client streams derive from
	// (default 1).
	Seed uint64 `json:"seed,omitempty"`

	Clients []ClientSpec `json:"clients"`
}

// ClientSpec is one client class of a Spec. Zero values take the
// documented defaults; every distribution knob mirrors the Profile field
// of the same name.
type ClientSpec struct {
	Name string `json:"name"`
	// SLOClass maps the client onto the robustness layer's classes:
	// "gold" (latency-sensitive, never shed), "batch" (sheddable, laxer
	// deadline), or "auto" (default: classify each request by size, the
	// classless behavior).
	SLOClass string `json:"slo,omitempty"`
	// Requests is the client's uncompressed request count over DurationS.
	Requests int `json:"requests"`
	// Seed pins the client's generator stream; 0 (the default) derives
	// it from the spec seed keyed on the client name.
	Seed uint64 `json:"seed,omitempty"`

	Arrival ArrivalSpec `json:"arrival,omitempty"`

	WriteFraction      float64 `json:"write_fraction,omitempty"`
	MultiBlockFraction float64 `json:"multiblock_fraction,omitempty"`
	MeanMultiBlocks    float64 `json:"mean_multiblocks,omitempty"`
	MaxMultiBlocks     int     `json:"max_multiblocks,omitempty"` // default 64

	DiskZipfTheta    float64 `json:"disk_zipf_theta,omitempty"`
	ExtentsPerDisk   int     `json:"extents_per_disk,omitempty"` // default 64
	ExtentZipfTheta  float64 `json:"extent_zipf_theta,omitempty"`
	DiskHotClustered bool    `json:"disk_hot_clustered,omitempty"`

	HotSetProb        float64 `json:"hot_set_prob,omitempty"`
	HotBlocks         int     `json:"hot_blocks,omitempty"`
	ZoneProb          float64 `json:"zone_prob,omitempty"`
	ZoneBlocksPerDisk int64   `json:"zone_blocks_per_disk,omitempty"`
	WindowProb        float64 `json:"window_prob,omitempty"`
	LocalityWindow    int     `json:"locality_window,omitempty"`

	ReadBeforeWriteProb float64 `json:"read_before_write_prob,omitempty"`
	TransactionMeanIOs  float64 `json:"transaction_mean_ios,omitempty"` // default 1
	IntraBurstGapUS     float64 `json:"intra_burst_gap_us,omitempty"`
}

// ArrivalSpec selects a client's arrival process.
type ArrivalSpec struct {
	// Process is "poisson" (default), "bursty" (busy/quiet duty-cycle
	// modulation), or "diurnal" (piecewise-constant rate schedule).
	Process string `json:"process,omitempty"`

	// Bursty: busy phases (fraction BurstDuty of time, mean length
	// BurstPeriodS) run BurstFactor times the average rate.
	BurstFactor float64 `json:"burst_factor,omitempty"`
	BurstDuty   float64 `json:"burst_duty,omitempty"`
	// BurstPeriodS is micro-structure and is NOT compressed by
	// TimeScale, like the intra-burst gap.
	BurstPeriodS float64 `json:"burst_period_s,omitempty"`

	// Diurnal: relative rate Phases over a cycle of PeriodS seconds
	// (0 = the whole duration). Phase starts are macro-structure and
	// compress with TimeScale. A rate of 0 silences the client — a batch
	// window or maintenance spike is a client whose schedule is zero
	// outside its window.
	Phases  []PhaseSpec `json:"phases,omitempty"`
	PeriodS float64     `json:"period_s,omitempty"`
}

// PhaseSpec is one segment of a diurnal schedule.
type PhaseSpec struct {
	StartS float64 `json:"start_s"`
	Rate   float64 `json:"rate"`
}

// LoadSpec reads a workload Spec from a JSON file with ParseSpec.
func LoadSpec(path string) (Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return Spec{}, err
	}
	defer f.Close()
	s, err := ParseSpec(f)
	if err != nil {
		return Spec{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// ParseSpec decodes a workload Spec from JSON: strict keys ("did you
// mean" on typos) and a required "spec": "raidsim-workload/1" header.
func ParseSpec(r io.Reader) (Spec, error) {
	var s Spec
	if err := specio.Parse(r, "workload spec", specio.Header{Want: SpecVersion, Required: true}, &s); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// BuiltinNames lists the workloads Builtin accepts, sorted.
func BuiltinNames() []string { return []string{"diurnal", "dss", "trace1", "trace2"} }

// Builtin returns a named built-in workload spec: the calibrated paper
// profiles as single-client specs, plus the 3-class diurnal example.
func Builtin(name string) (Spec, error) {
	switch name {
	case "trace1":
		return SpecFromProfile(Trace1Profile()), nil
	case "trace2":
		return SpecFromProfile(Trace2Profile()), nil
	case "dss":
		return SpecFromProfile(DSSProfile()), nil
	case "diurnal":
		return DiurnalSpec(), nil
	}
	return Spec{}, fmt.Errorf("workload: unknown workload %q (valid: %s, or a .json spec path)",
		name, strings.Join(BuiltinNames(), ", "))
}

// Resolve turns a -workload argument — a built-in name or a path to a
// .json spec file — into a Spec.
func Resolve(arg string) (Spec, error) {
	if strings.HasSuffix(arg, ".json") {
		return LoadSpec(arg)
	}
	return Builtin(arg)
}

// ResolveTrace resolves a workload argument and generates its trace at
// the given scale. The built-in profiles (trace1, trace2, dss) generate
// through the classic Profile path — classless and bit-identical to
// every earlier release — while spec files and the multi-client
// builtins go through Spec.Generate and carry a class table.
func ResolveTrace(arg string, scale float64) (*trace.Trace, error) {
	var p Profile
	switch arg {
	case "trace1":
		p = Trace1Profile()
	case "trace2":
		p = Trace2Profile()
	case "dss":
		p = DSSProfile()
	default:
		sp, err := Resolve(arg)
		if err != nil {
			return nil, err
		}
		if scale != 1 {
			sp = sp.Scaled(scale)
		}
		return sp.Generate()
	}
	return Generate(p.Scaled(scale))
}

// SpecFromProfile expresses a Profile as a single-client Spec whose
// Generate produces the bit-identical trace: every knob carries over and
// the client pins the profile's seed.
func SpecFromProfile(p Profile) Spec {
	c := ClientSpec{
		Name:     p.Name,
		SLOClass: "auto",
		Requests: p.Requests,
		Seed:     p.Seed,

		WriteFraction:      p.WriteFraction,
		MultiBlockFraction: p.MultiBlockFraction,
		MeanMultiBlocks:    p.MeanMultiBlocks,
		MaxMultiBlocks:     p.MaxMultiBlocks,

		DiskZipfTheta:    p.DiskZipfTheta,
		ExtentsPerDisk:   p.ExtentsPerDisk,
		ExtentZipfTheta:  p.ExtentZipfTheta,
		DiskHotClustered: p.DiskHotClustered,

		HotSetProb:        p.HotSetProb,
		HotBlocks:         p.HotBlocks,
		ZoneProb:          p.ZoneProb,
		ZoneBlocksPerDisk: p.ZoneBlocksPerDisk,
		WindowProb:        p.WindowProb,
		LocalityWindow:    p.LocalityWindow,

		ReadBeforeWriteProb: p.ReadBeforeWriteProb,
		TransactionMeanIOs:  p.TransactionMeanIOs,
		IntraBurstGapUS:     float64(p.IntraBurstGap) / float64(sim.Microsecond),
	}
	if p.LoadBurstFactor > 1 {
		c.Arrival = ArrivalSpec{
			Process:      "bursty",
			BurstFactor:  p.LoadBurstFactor,
			BurstDuty:    p.LoadBurstDuty,
			BurstPeriodS: float64(p.LoadBurstPeriod) / float64(sim.Second),
		}
	}
	if len(p.Schedule) > 0 {
		a := ArrivalSpec{Process: "diurnal", PeriodS: float64(p.SchedulePeriod) / float64(sim.Second)}
		for _, ph := range p.Schedule {
			a.Phases = append(a.Phases, PhaseSpec{StartS: float64(ph.Start) / float64(sim.Second), Rate: ph.Rate})
		}
		c.Arrival = a
	}
	return Spec{
		Name:          p.Name,
		Disks:         p.NumDisks,
		BlocksPerDisk: p.BlocksPerDisk,
		DurationS:     float64(p.Duration) / float64(sim.Second),
		Clients:       []ClientSpec{c},
	}
}

// fill applies the documented defaults in place.
func (s *Spec) fill() {
	if s.Name == "" {
		s.Name = "workload"
	}
	if s.BlocksPerDisk == 0 {
		s.BlocksPerDisk = geom.Default().BlocksPerDisk()
	}
	if s.TimeScale == 0 {
		s.TimeScale = 1
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	for i := range s.Clients {
		c := &s.Clients[i]
		if c.ExtentsPerDisk == 0 {
			c.ExtentsPerDisk = 64
		}
		if c.MaxMultiBlocks == 0 {
			c.MaxMultiBlocks = 64
		}
		if c.MultiBlockFraction > 0 && c.MeanMultiBlocks == 0 {
			c.MeanMultiBlocks = 8
		}
		if c.TransactionMeanIOs == 0 {
			c.TransactionMeanIOs = 1
		}
	}
}

// Scaled returns a copy generating f times the requests in f times the
// duration: every client's arrival rate — the operating point — is
// unchanged, exactly like Profile.Scaled. Macro-structure (diurnal phase
// boundaries) compresses with the duration; micro-structure (burst
// periods, intra-burst gaps) stays absolute.
func (s Spec) Scaled(f float64) Spec {
	if f <= 0 {
		panic("workload: non-positive scale")
	}
	q := s
	q.DurationS = s.DurationS * f
	q.Clients = append([]ClientSpec(nil), s.Clients...)
	for i := range q.Clients {
		c := &q.Clients[i]
		c.Requests = int(float64(c.Requests) * f)
		if c.Requests < 1 {
			c.Requests = 1
		}
		if len(c.Arrival.Phases) > 0 {
			ph := make([]PhaseSpec, len(c.Arrival.Phases))
			for j, p := range c.Arrival.Phases {
				ph[j] = PhaseSpec{StartS: p.StartS * f, Rate: p.Rate}
			}
			c.Arrival.Phases = ph
			c.Arrival.PeriodS = c.Arrival.PeriodS * f
		}
	}
	return q
}

// Validate reports spec errors, naming the offending client.
func (s Spec) Validate() error {
	s.fill()
	if s.Disks <= 0 {
		return fmt.Errorf("workload spec %q: disks must be positive", s.Name)
	}
	if s.DurationS <= 0 {
		return fmt.Errorf("workload spec %q: duration_s must be positive", s.Name)
	}
	if s.TimeScale < 1 {
		return fmt.Errorf("workload spec %q: time_scale %g must be >= 1", s.Name, s.TimeScale)
	}
	if len(s.Clients) == 0 {
		return fmt.Errorf("workload spec %q: needs at least one client", s.Name)
	}
	if len(s.Clients) > 256 {
		return fmt.Errorf("workload spec %q: %d clients exceed the 256-class trace format", s.Name, len(s.Clients))
	}
	seen := make(map[string]bool, len(s.Clients))
	for i, c := range s.Clients {
		if c.Name == "" {
			return fmt.Errorf("workload spec %q: client %d needs a name", s.Name, i)
		}
		if seen[c.Name] {
			return fmt.Errorf("workload spec %q: duplicate client name %q", s.Name, c.Name)
		}
		seen[c.Name] = true
		if _, err := trace.ParseSLO(c.SLOClass); err != nil {
			return fmt.Errorf("workload spec %q: client %q: %w", s.Name, c.Name, err)
		}
		p, err := s.clientProfile(i)
		if err != nil {
			return err
		}
		if err := p.Validate(); err != nil {
			return fmt.Errorf("workload spec %q: client %q: %w", s.Name, c.Name, err)
		}
	}
	return nil
}

// clientProfile compiles client i down to the Profile the generator
// runs, applying TimeScale compression and the derived seed. The caller
// must have run fill.
func (s Spec) clientProfile(i int) (Profile, error) {
	c := s.Clients[i]
	ts := s.TimeScale
	reqs := int(math.Round(float64(c.Requests) / ts))
	if reqs < 1 {
		reqs = 1
	}
	seed := c.Seed
	if seed == 0 {
		seed = shard.SeedFor(s.Seed, c.Name)
	}
	p := Profile{
		Name:          c.Name,
		NumDisks:      s.Disks,
		BlocksPerDisk: s.BlocksPerDisk,
		Requests:      reqs,
		Duration:      secs(s.DurationS / ts),

		WriteFraction:      c.WriteFraction,
		MultiBlockFraction: c.MultiBlockFraction,
		MeanMultiBlocks:    c.MeanMultiBlocks,
		MaxMultiBlocks:     c.MaxMultiBlocks,

		DiskZipfTheta:    c.DiskZipfTheta,
		ExtentsPerDisk:   c.ExtentsPerDisk,
		ExtentZipfTheta:  c.ExtentZipfTheta,
		DiskHotClustered: c.DiskHotClustered,

		HotSetProb:        c.HotSetProb,
		HotBlocks:         c.HotBlocks,
		ZoneProb:          c.ZoneProb,
		ZoneBlocksPerDisk: c.ZoneBlocksPerDisk,
		WindowProb:        c.WindowProb,
		LocalityWindow:    c.LocalityWindow,

		ReadBeforeWriteProb: c.ReadBeforeWriteProb,
		TransactionMeanIOs:  c.TransactionMeanIOs,
		IntraBurstGap:       sim.Time(math.Round(c.IntraBurstGapUS * float64(sim.Microsecond))),

		Seed: seed,
	}
	switch c.Arrival.Process {
	case "", "poisson":
	case "bursty":
		p.LoadBurstFactor = c.Arrival.BurstFactor
		p.LoadBurstDuty = c.Arrival.BurstDuty
		p.LoadBurstPeriod = secs(c.Arrival.BurstPeriodS)
	case "diurnal":
		if len(c.Arrival.Phases) == 0 {
			return Profile{}, fmt.Errorf("workload spec %q: client %q: diurnal arrival needs phases", s.Name, c.Name)
		}
		// Scale the cycle as one unit: round the period once, then place
		// each boundary at the same fraction of the scaled period it held
		// in the unscaled cycle. Rounding every boundary independently
		// (secs(ph.StartS/ts)) drifts boundaries a nanosecond against the
		// period at non-divisor scales, so a phase silently gains or loses
		// arrivals relative to the 24-hour shape it is supposed to
		// compress. A zero period means one cycle spans the run, so the
		// scaled duration is the reference instead.
		p.SchedulePeriod = secs(c.Arrival.PeriodS / ts)
		refScaled, refRaw := float64(p.SchedulePeriod), c.Arrival.PeriodS
		if p.SchedulePeriod == 0 {
			refScaled, refRaw = float64(p.Duration), s.DurationS
		}
		for j, ph := range c.Arrival.Phases {
			at := secs(ph.StartS / ts)
			if refRaw > 0 {
				at = sim.Time(math.Round(refScaled * ph.StartS / refRaw))
			}
			// Nanosecond clamps so legal specs stay legal after scaling:
			// starts must strictly increase and stay inside the period.
			if j > 0 && at <= p.Schedule[j-1].Start {
				at = p.Schedule[j-1].Start + 1
			}
			if lim := sim.Time(refScaled); lim > 0 && at >= lim && ph.StartS < refRaw {
				at = lim - 1
			}
			p.Schedule = append(p.Schedule, RatePhase{Start: at, Rate: ph.Rate})
		}
	default:
		return Profile{}, fmt.Errorf("workload spec %q: client %q: unknown arrival process %q (want poisson, bursty, or diurnal)",
			s.Name, c.Name, c.Arrival.Process)
	}
	return p, nil
}

// secs converts float seconds to sim.Time, rounding to the nanosecond.
func secs(v float64) sim.Time { return sim.Time(math.Round(v * float64(sim.Second))) }

// Classes returns the trace class table the spec's clients map to.
func (s Spec) Classes() []trace.ClassInfo {
	out := make([]trace.ClassInfo, len(s.Clients))
	for i, c := range s.Clients {
		slo, _ := trace.ParseSLO(c.SLOClass)
		out[i] = trace.ClassInfo{Name: c.Name, SLO: slo}
	}
	return out
}

// Generate synthesizes the spec's trace: every client stream generated
// independently (with its own rng stream), records tagged with the
// client's class index, and the streams k-way merged by arrival time
// (ties broken by client order, so the merge is stable and
// deterministic). A single-client spec compiled from a Profile generates
// the bit-identical records the Profile path generates.
func (s Spec) Generate() (*trace.Trace, error) {
	s.fill()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	parts := make([][]trace.Record, len(s.Clients))
	total := 0
	for i := range s.Clients {
		p, err := s.clientProfile(i)
		if err != nil {
			return nil, err
		}
		pt, err := Generate(p)
		if err != nil {
			return nil, err
		}
		recs := pt.Records
		if i != 0 {
			// Client 0 keeps the zero class the generator wrote.
			for j := range recs {
				recs[j].Class = uint8(i)
			}
		}
		parts[i] = recs
		total += len(recs)
	}
	out := &trace.Trace{
		Name:          s.Name,
		NumDisks:      s.Disks,
		BlocksPerDisk: s.BlocksPerDisk,
		Classes:       s.Classes(),
		Records:       mergeStreams(parts, total),
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// mergeStreams k-way merges per-client record streams, each already
// sorted by At, into one time-ordered stream. Ties take the lowest
// client index first — a stable, deterministic order no matter how many
// clients the spec grows.
func mergeStreams(parts [][]trace.Record, total int) []trace.Record {
	if len(parts) == 1 {
		return parts[0]
	}
	out := make([]trace.Record, 0, total)
	idx := make([]int, len(parts))
	for len(out) < total {
		best := -1
		for i, p := range parts {
			if idx[i] >= len(p) {
				continue
			}
			if best < 0 || p[idx[i]].At < parts[best][idx[best]].At {
				best = i
			}
		}
		out = append(out, parts[best][idx[best]])
		idx[best]++
	}
	return out
}

// DiurnalSpec is the built-in 3-class example: an OLTP client (gold)
// following a daytime-peaked diurnal curve, a batch scan client confined
// to a night window, and a backup client spiking for two early-morning
// hours — the mixed traffic shape the paper's frozen traces never had.
// A 24 h horizon compressed 96x simulates in a 15-minute window.
func DiurnalSpec() Spec {
	h := 3600.0
	return Spec{
		Name:      "diurnal",
		Disks:     10,
		DurationS: 24 * h,
		TimeScale: 96,
		Seed:      11,
		Clients: []ClientSpec{
			{
				Name:     "oltp",
				SLOClass: "gold",
				Requests: 1200000,
				Arrival: ArrivalSpec{
					Process: "diurnal",
					Phases: []PhaseSpec{
						{StartS: 0, Rate: 0.35},
						{StartS: 7 * h, Rate: 1.0},
						{StartS: 19 * h, Rate: 0.6},
						{StartS: 22 * h, Rate: 0.35},
					},
				},
				WriteFraction:       0.28,
				MultiBlockFraction:  0.02,
				MeanMultiBlocks:     8,
				DiskZipfTheta:       1.2,
				ExtentZipfTheta:     0.3,
				HotSetProb:          0.05,
				HotBlocks:           500,
				ZoneProb:            0.4,
				ZoneBlocksPerDisk:   6000,
				WindowProb:          0.05,
				LocalityWindow:      100000,
				ReadBeforeWriteProb: 0.5,
				TransactionMeanIOs:  6,
				IntraBurstGapUS:     200,
			},
			{
				Name:     "scan",
				SLOClass: "batch",
				Requests: 160000,
				Arrival: ArrivalSpec{
					Process: "diurnal",
					Phases: []PhaseSpec{
						{StartS: 0, Rate: 1.0}, // night batch window: 00:00-06:00
						{StartS: 6 * h, Rate: 0},
					},
				},
				WriteFraction:      0.05,
				MultiBlockFraction: 0.8,
				MeanMultiBlocks:    24,
				DiskZipfTheta:      0.3,
				TransactionMeanIOs: 3,
				IntraBurstGapUS:    2000,
			},
			{
				Name:     "backup",
				SLOClass: "batch",
				Requests: 60000,
				Arrival: ArrivalSpec{
					Process: "diurnal",
					Phases: []PhaseSpec{
						{StartS: 0, Rate: 0},
						{StartS: 2 * h, Rate: 1.0}, // backup spike: 02:00-04:00
						{StartS: 4 * h, Rate: 0},
					},
				},
				WriteFraction:      0.02,
				MultiBlockFraction: 0.95,
				MeanMultiBlocks:    40,
				TransactionMeanIOs: 2,
				IntraBurstGapUS:    5000,
			},
		},
	}
}
