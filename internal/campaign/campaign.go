// Package campaign owns the run lifecycle of fleet-scale parameter
// sweeps: a Spec (the parameter grid of organization × array size ×
// cache size × workload knobs × replication seeds, loadable from JSON
// or built programmatically) expands into Points; a deterministic
// worker pool (internal/campaign/shard) fans the points across
// goroutines, one engine and one derived seed per run; per-run results
// are appended to a JSONL journal keyed by stable run IDs so an
// interrupted campaign resumes by skipping completed runs; and the
// per-run records merge — bin-wise, in canonical ID order, so the
// result is independent of completion order and worker count — into
// fleet-level summaries and percentiles.
//
// The layering: shard knows nothing about simulations, campaign knows
// nothing about rendering. cmd/campaign turns Fleet groups into
// report tables; internal/fault runs its Monte-Carlo sweep on the same
// pool.
package campaign

import (
	"fmt"
	"sort"
	"strings"

	"raidsim/internal/core"
	"raidsim/internal/sim"
	"raidsim/internal/stats"
	"raidsim/internal/trace"
)

// Point is one run of a campaign: a stable ID (the resume and
// reporting key), the axis values that produced it, and the fully
// resolved configuration and trace. Spec.Points derives Config.Seed
// from the base seed and the ID; hand-built points keep whatever seed
// their Config carries.
type Point struct {
	ID     string
	Params map[string]string
	Config core.Config
	Trace  *trace.Trace
}

// seedKey is the replication-index parameter; grouping strips it so a
// group aggregates exactly the replications of one configuration.
const seedKey = "seed"

// paramKey renders params in canonical sorted "k=v/k=v" form. With
// omitSeed it yields the group key shared by all replications.
func paramKey(params map[string]string, omitSeed bool) string {
	keys := make([]string, 0, len(params))
	for k := range params {
		if omitSeed && k == seedKey {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte('/')
		}
		fmt.Fprintf(&b, "%s=%s", k, params[k])
	}
	return b.String()
}

// RunRecord is the journaled outcome of one completed run: identity,
// scalar counters, and the full response-time summaries (histogram
// included), which is what lets a resumed campaign rebuild fleet
// percentiles bit-identically without re-running anything.
type RunRecord struct {
	ID     string            `json:"id"`
	Params map[string]string `json:"params,omitempty"`
	Seed   uint64            `json:"seed"`

	Arrays   int    `json:"arrays"`
	Requests int64  `json:"requests"`
	Events   uint64 `json:"events"`

	Resp  stats.SummaryState `json:"resp"`
	Read  stats.SummaryState `json:"read"`
	Write stats.SummaryState `json:"write"`

	ReadHits    int64 `json:"read_hits"`
	ReadMisses  int64 `json:"read_misses"`
	WriteHits   int64 `json:"write_hits"`
	WriteMisses int64 `json:"write_misses"`

	// ElapsedMS, Worker and Engine describe how the run executed, not
	// what it computed: host wall-clock time, the pool worker that ran
	// it, and (under Options.SelfMetrics only) its engine self-metrics.
	// They depend on the host and the pool, so Fingerprint excludes them.
	ElapsedMS float64         `json:"elapsed_ms"`
	Worker    int             `json:"worker"`
	Engine    *sim.MeterStats `json:"engine,omitempty"`
}

// NewRecord summarizes one run's results into a journalable record.
func NewRecord(p Point, res *core.Results, elapsedMS float64) RunRecord {
	return RunRecord{
		ID:          p.ID,
		Params:      p.Params,
		Seed:        p.Config.Seed,
		Arrays:      res.Arrays,
		Requests:    res.Requests,
		Events:      res.Events,
		Resp:        res.Resp.State(),
		Read:        res.ReadResp.State(),
		Write:       res.WriteResp.State(),
		ReadHits:    res.ReadHits,
		ReadMisses:  res.ReadMisses,
		WriteHits:   res.WriteHits,
		WriteMisses: res.WriteMisses,
		ElapsedMS:   elapsedMS,
	}
}

// fingerprint pins the deterministic content of the record: every
// counter and the exact bits of every mean. Two runs of the same point
// must produce equal fingerprints regardless of worker count, and a
// journal replay must reproduce the live fingerprint exactly.
func (r *RunRecord) fingerprint() string {
	hex := func(f float64) string { return fmt.Sprintf("%x", f) }
	return fmt.Sprintf("id=%s seed=%d ev=%d req=%d resp=%d/%s rd=%d/%s wr=%d/%s hits=%d,%d,%d,%d",
		r.ID, r.Seed, r.Events, r.Requests,
		r.Resp.N, hex(r.Resp.Mean),
		r.Read.N, hex(r.Read.Mean),
		r.Write.N, hex(r.Write.Mean),
		r.ReadHits, r.ReadMisses, r.WriteHits, r.WriteMisses)
}

// groupKey returns the record's group key (params minus the seed axis).
func (r *RunRecord) groupKey() string { return paramKey(r.Params, true) }
