package main

import (
	"bytes"
	_ "embed"
	"flag"
	"fmt"
	"strings"

	"raidsim/internal/array"
	"raidsim/internal/campaign"
	"raidsim/internal/campaign/shard"
	"raidsim/internal/cliflag"
	"raidsim/internal/core"
	"raidsim/internal/trace"
	"raidsim/internal/workload"
)

// workers is both GOMAXPROCS and the simulation worker count of every
// run, so results from hosts with more CPUs stay comparable.
const workers = 2

// closedMPL is the closed-loop workload's outstanding requests per array.
const closedMPL = 8

// Independently seeded input streams per pass. A workload's cost depends
// on its input's hot spots, not only on its size: one full-length Trace 2
// stream costs 45 to 85 µs per request in closed-loop RAID4 depending on
// its seed, and the fleet grid over a single trace takes 3.0 to 3.9 s. So
// every workload but paper-fig5 replays several streams per pass, which
// keeps a pass's cost the same from seed to seed and keeps each run short
// enough for the speed meter to calibrate often.
const (
	writebackStreams = 3
	fleetStreams     = 40
	telemetryStreams = 4
	closedStreams    = 16
)

// telemetryTimeScale compresses each telemetry-faults diurnal day, as
// workload.Spec.TimeScale does: 24 simulated hours become 6, with the
// same request rates.
const telemetryTimeScale = 4

// fleetSpec is examples/campaign/fleet.json as of the benchmark's
// definition, embedded so that editing the example does not silently
// change the benchmark.
//
//go:embed fleet.json
var fleetSpec []byte

// telemetryFlags is the telemetry-faults workload's configuration, parsed
// through cliflag as cmd/raidsim would. Its times are for the day
// compressed by telemetryTimeScale: the disk fails 15 minutes in, and disk
// 3 is sick from 1h45 to 2h15, the uncompressed day's 7h to 9h. Its
// robustness, fault and observability settings are also the ladder's
// standard settings for those layers (see ladder.go).
const telemetryFlags = "-org raid10 -n 5 -obs-window 10s -obs-trace 4096 -trace-topk 8" +
	" -deadline 100ms -retries 2 -hedge-quantile 0.95 -shed-queue 64" +
	" -fail-at 900s -fail-disk 0 -spares 1" +
	" -sick-disk 3 -sick-at 105m -sick-until 135m -slow-factor 2 -transient-rate 0.01"

// layer is one optional layer of the simulated stack above the array.
type layer int

const (
	layerCache layer = iota
	layerRobust
	layerFault
	layerObs
	layerSpans
	numLayers
)

var layerNames = [numLayers]string{"cache", "array.robust", "fault", "obs", "obs.spans"}

// workloadDef is one named set of inputs the benchmark runs. Seed 0 keeps
// every built-in seed (the golden fingerprints are for seed 0); any other
// seed replaces the workload-generation seeds and the simulation seeds.
type workloadDef struct {
	name string
	why  string
	// gen generates the workload's (first) trace.
	gen func(seed uint64, smoke bool) (*trace.Trace, error)
	// setup builds all inputs: the traces, configurations, campaign grid.
	setup func(seed uint64, smoke bool) (*input, error)
	// ladderOrg is the organization the traced run's ladder replays;
	// uses marks the layers the workload's own stack runs.
	ladderOrg array.Org
	uses      [numLayers]bool
}

// input is everything a workload pass consumes.
type input struct {
	tr     *trace.Trace     // the workload's first trace
	runs   []simRun         // core runs in pass order; empty for fleet-grid
	points []campaign.Point // fleet-grid's campaign grid
	closed bool             // closed loop at closedMPL instead of open-loop replay
}

// simRun is one core.Run or core.RunClosedLoop call of a pass.
type simRun struct {
	id  string
	cfg core.Config
	tr  *trace.Trace
}

var workloads = []workloadDef{
	{
		name: "paper-fig5",
		why:  "open-loop replay of Trace 1 over the paper's 130 disks at a quarter of its length: engine, disk, schemes and core's 13-array fan-out do the work; no cache or campaign",
		gen:  fig5Trace,
		setup: func(seed uint64, smoke bool) (*input, error) {
			return orgRuns(fig5Trace, workload.Trace1Profile().Seed, seed, smoke, false, 1,
				array.OrgBase, array.OrgMirror, array.OrgRAID5, array.OrgParityStriping)
		},
		ladderOrg: array.OrgRAID5,
	},
	{
		name: "cached-writeback",
		why:  "write-heavy Trace 2, three 1.7-simulated-hour streams, larger than a 16 MB cache on one array: cache, destage and parity spooling dominate",
		gen:  writebackTrace,
		setup: func(seed uint64, smoke bool) (*input, error) {
			return orgRuns(writebackTrace, workload.Trace2Profile().Seed, seed, smoke, true,
				pick(smoke, 1, writebackStreams), array.OrgRAID5, array.OrgRAID4)
		},
		ladderOrg: array.OrgRAID5,
		uses:      [numLayers]bool{layerCache: true},
	},
	{
		name:      "fleet-grid",
		why:       "the 1000-run fleet campaign on 2 workers over 40 Trace 2 streams: per-run fixed cost, the pool, the journal and the merge dominate",
		gen:       fleetTrace,
		setup:     fleetSetup,
		ladderOrg: array.OrgRAID5,
		uses:      [numLayers]bool{layerCache: true},
	},
	{
		name:      "telemetry-faults",
		why:       "four 3-class diurnal days on raid10 with obs, spans, robustness, a disk failure with rebuild and a sick disk: the only workload that arms those layers",
		gen:       diurnalTrace,
		setup:     telemetrySetup,
		ladderOrg: array.OrgRAID10,
		uses:      [numLayers]bool{layerRobust: true, layerFault: true, layerObs: true, layerSpans: true},
	},
	{
		name: "closed-raid4",
		why:  "closed loop at 8 outstanding requests, no think time, on cached raid4 and raid5 over 16 short Trace 2 streams: saturation, the parity spool, the closed-loop executor",
		gen:  closedTrace,
		setup: func(seed uint64, smoke bool) (*input, error) {
			in, err := orgRuns(closedTrace, workload.Trace2Profile().Seed, seed, smoke, true,
				pick(smoke, 3, closedStreams), array.OrgRAID4, array.OrgRAID5)
			if in != nil {
				in.closed = true
			}
			return in, err
		},
		ladderOrg: array.OrgRAID4,
		uses:      [numLayers]bool{layerCache: true},
	},
}

func fig5Trace(seed uint64, smoke bool) (*trace.Trace, error) {
	return profileTrace(workload.Trace1Profile(), seed, pick(smoke, 0.01, 0.25))
}

func writebackTrace(seed uint64, smoke bool) (*trace.Trace, error) {
	return profileTrace(workload.Trace2Profile(), seed, pick(smoke, 0.5, 1))
}

func closedTrace(seed uint64, smoke bool) (*trace.Trace, error) {
	return profileTrace(workload.Trace2Profile(), seed, pick(smoke, 0.05, 0.1))
}

func fleetTrace(seed uint64, smoke bool) (*trace.Trace, error) {
	spec, err := campaign.ParseSpec(bytes.NewReader(fleetSpec))
	if err != nil {
		return nil, err
	}
	return profileTrace(workload.Trace2Profile(), seed, spec.Scale)
}

func diurnalTrace(seed uint64, smoke bool) (*trace.Trace, error) {
	sp := workload.DiurnalSpec()
	sp.TimeScale = pick[float64](smoke, 96, telemetryTimeScale)
	if seed != 0 {
		sp.Seed = seed
	}
	return sp.Generate()
}

func findWorkload(name string) (*workloadDef, error) {
	var names []string
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
		names = append(names, workloads[i].name)
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %s)", name, strings.Join(names, ", "))
}

func pick[T any](smoke bool, small, full T) T {
	if smoke {
		return small
	}
	return full
}

// profileTrace generates a built-in profile at the given scale, as
// workload.ResolveTrace does, with the profile seed replaced when seed != 0.
func profileTrace(p workload.Profile, seed uint64, scale float64) (*trace.Trace, error) {
	if seed != 0 {
		p.Seed = seed
	}
	return workload.Generate(p.Scaled(scale))
}

// streamSeed is the generation seed of stream k of a workload's streams:
// for stream 0 the generator's own seed def (seed 0) or seed; for the
// others, a seed derived from stream 0's.
func streamSeed(def, seed uint64, k int) uint64 {
	base := def
	if seed != 0 {
		base = seed
	}
	if k == 0 {
		return base
	}
	return shard.SeedFor(base, fmt.Sprintf("stream%d", k))
}

// seeded returns cfg with the benchmark's worker count and, for seed != 0,
// the simulation and fault seeds replaced.
func seeded(cfg core.Config, seed uint64) core.Config {
	if seed != 0 {
		cfg.Seed = seed
		cfg.Fault.Seed = seed
	}
	cfg.Workers = workers
	return cfg
}

// orgRuns generates streams traces with gen, stream k from
// streamSeed(def, seed, k), and runs each organization over each, stream
// by stream, from core.DefaultConfig (whose cache is 16 MB). Run IDs are
// the organization, plus /stream<k> when there are several streams.
func orgRuns(gen func(uint64, bool) (*trace.Trace, error), def, seed uint64, smoke, cached bool, streams int, orgs ...array.Org) (*input, error) {
	in := &input{}
	for k := 0; k < streams; k++ {
		tr, err := gen(streamSeed(def, seed, k), smoke)
		if err != nil {
			return nil, err
		}
		if in.tr == nil {
			in.tr = tr
		}
		for _, org := range orgs {
			cfg := core.DefaultConfig(org)
			cfg.DataDisks = tr.NumDisks
			cfg.Cached = cached
			id := org.String()
			if streams > 1 {
				id = fmt.Sprintf("%s/stream%d", org, k)
			}
			in.runs = append(in.runs, simRun{id, seeded(cfg, seed), tr})
		}
	}
	return in, nil
}

// fleetSetup parses the embedded fleet spec and expands its grid, with the
// campaign seed replaced for seed != 0. Point i then replays stream
// i mod fleetStreams of fleetStreams Trace 2 streams at the spec's scale,
// instead of the one trace Spec.Points gives every point. The smoke size
// keeps the grid's seed=0 slice.
func fleetSetup(seed uint64, smoke bool) (*input, error) {
	spec, err := campaign.ParseSpec(bytes.NewReader(fleetSpec))
	if err != nil {
		return nil, err
	}
	if seed != 0 {
		spec.Seed = seed
	}
	points, err := spec.Points()
	if err != nil {
		return nil, err
	}
	if smoke {
		var slice []campaign.Point
		for _, p := range points {
			if p.Params["seed"] == "0" {
				slice = append(slice, p)
			}
		}
		points = slice
	}
	streams := make([]*trace.Trace, fleetStreams)
	for k := range streams {
		if streams[k], err = fleetTrace(streamSeed(workload.Trace2Profile().Seed, seed, k), smoke); err != nil {
			return nil, err
		}
	}
	for i := range points {
		points[i].Trace = streams[i%fleetStreams]
	}
	return &input{tr: streams[0], points: points}, nil
}

// telemetrySetup replays telemetryStreams diurnal days (one at smoke size)
// through the telemetryFlags configuration.
func telemetrySetup(seed uint64, smoke bool) (*input, error) {
	cfg, err := telemetryConfig()
	if err != nil {
		return nil, err
	}
	in := &input{}
	streams := pick(smoke, 1, telemetryStreams)
	for k := 0; k < streams; k++ {
		tr, err := diurnalTrace(streamSeed(workload.DiurnalSpec().Seed, seed, k), smoke)
		if err != nil {
			return nil, err
		}
		if in.tr == nil {
			in.tr = tr
		}
		c := cfg
		c.DataDisks = tr.NumDisks
		id := c.Org.String()
		if streams > 1 {
			id = fmt.Sprintf("%s/stream%d", c.Org, k)
		}
		in.runs = append(in.runs, simRun{id, seeded(c, seed), tr})
	}
	return in, nil
}

// telemetryConfig parses telemetryFlags into a core.Config.
func telemetryConfig() (core.Config, error) {
	fs := flag.NewFlagSet("telemetry-faults", flag.ContinueOnError)
	b := cliflag.Bind(fs)
	if err := fs.Parse(strings.Fields(telemetryFlags)); err != nil {
		return core.Config{}, err
	}
	return b.Config()
}
