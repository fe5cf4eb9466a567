package campaign

import (
	"context"
	"fmt"
	"sync"
	"time"

	"raidsim/internal/campaign/shard"
	"raidsim/internal/core"
	"raidsim/internal/obs"
	"raidsim/internal/sim"
)

// Options configures Execute.
type Options struct {
	// Workers caps concurrent runs; 0 means GOMAXPROCS. Each run
	// simulates on its own engine, so worker count never changes
	// results — only wall-clock time.
	Workers int
	// Journal, when set, makes the campaign resumable: points whose ID
	// the journal already holds are replayed from it instead of
	// simulated, and every fresh completion is appended.
	Journal *Journal
	// OnResult, when set, observes every fresh (non-replayed) run with
	// its full results, in completion order. Calls are serialized; i is
	// the point's index in the input slice.
	OnResult func(i int, p Point, res *core.Results)
	// OnProgress, when set, receives a one-line note as each run
	// finishes (serialized, completion order).
	OnProgress func(done, total int, p Point)
	// Context cancels the campaign between runs; nil means Background.
	// Completed runs are already journaled, so a canceled campaign
	// resumes where it stopped.
	Context context.Context

	// Live, when set, receives fleet telemetry as the campaign runs:
	// SetFleet on entry, RunStarted/RunFinished per point, so an HTTP
	// introspection server sees the campaign in flight. Pure
	// observation — the registry never feeds back into execution.
	Live *obs.Live
	// SelfMetrics arms per-run engine metering (core.Config.SelfMetrics)
	// so Live, each executed RunRecord's Engine field, and
	// Outcome.Engine carry engine self-metrics. Metered runs are
	// bit-identical to unmetered ones.
	SelfMetrics bool
}

// Outcome is what a campaign execution produced.
type Outcome struct {
	// Records[i] is points[i]'s record, journal-replayed or freshly run;
	// a failed point leaves the zero RunRecord (empty ID) there and its
	// reason in Errors[i].
	Records []RunRecord
	// Errors[i] is the failure of points[i] ("" = success). Failed runs
	// are not journaled, so a resume retries them.
	Errors []string
	// Executed counts runs actually simulated (not journal-replayed);
	// Skipped counts journal replays.
	Executed, Skipped int
	// Events sums simulated engine events across executed runs.
	Events uint64
	// Elapsed is the wall-clock time of the Execute call.
	Elapsed time.Duration
	// Workers is the pool's per-worker accounting (tasks, steals, busy
	// time); nil when every point was journal-replayed.
	Workers []shard.WorkerStats
	// Engine aggregates engine self-metrics across executed runs; zero
	// unless Options.SelfMetrics was set.
	Engine sim.MeterStats
}

// Failed returns the non-empty error strings.
func (o *Outcome) Failed() []string {
	var out []string
	for _, e := range o.Errors {
		if e != "" {
			out = append(out, e)
		}
	}
	return out
}

// Execute runs every point not already present in the journal on the
// worker pool and returns one record per point. Per-run failures (an
// overloaded config that never drains, a canceled context) are
// reported per point rather than aborting the sweep; structural
// problems (duplicate IDs) fail immediately.
func Execute(points []Point, opts Options) (*Outcome, error) {
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	seen := make(map[string]bool, len(points))
	for _, p := range points {
		if p.ID == "" {
			return nil, fmt.Errorf("campaign: point with empty ID")
		}
		if seen[p.ID] {
			return nil, fmt.Errorf("campaign: duplicate run ID %q", p.ID)
		}
		seen[p.ID] = true
	}

	opts.Live.SetFleet(len(points))
	out := &Outcome{
		Records: make([]RunRecord, len(points)),
		Errors:  make([]string, len(points)),
	}
	var pending []int
	if opts.Journal != nil {
		done := opts.Journal.Done()
		for i, p := range points {
			if rec, ok := done[p.ID]; ok {
				out.Records[i] = rec
				out.Skipped++
				opts.Live.RunFinished(runStatus(p, rec, "resumed"))
			} else {
				pending = append(pending, i)
			}
		}
	} else {
		pending = make([]int, len(points))
		for i := range pending {
			pending[i] = i
		}
	}

	start := time.Now()
	var mu sync.Mutex
	finished := out.Skipped
	// fail records points[i]'s failure in the outcome and the live
	// registry. The caller holds mu.
	fail := func(i, worker int, msg string) {
		out.Errors[i] = msg
		st := runStatus(points[i], RunRecord{}, "failed")
		st.Worker = worker
		st.Err = msg
		opts.Live.RunFinished(st)
	}
	stats := shard.MapStats(opts.Workers, len(pending), func(worker, pi int) {
		i := pending[pi]
		p := points[i]
		if err := ctx.Err(); err != nil {
			mu.Lock()
			defer mu.Unlock()
			fail(i, worker, fmt.Sprintf("%s: canceled: %v", p.ID, err))
			return
		}
		opts.Live.RunStarted(p.ID, paramKey(p.Params, true), p.Config.Seed, worker)
		cfg := p.Config
		cfg.SelfMetrics = opts.SelfMetrics
		t0 := time.Now()
		res, err := core.RunContext(ctx, cfg, p.Trace)
		if err != nil {
			mu.Lock()
			defer mu.Unlock()
			fail(i, worker, fmt.Sprintf("%s: %v", p.ID, err))
			return
		}
		rec := NewRecord(p, res, float64(time.Since(t0))/float64(time.Millisecond))
		rec.Worker = worker
		if opts.SelfMetrics {
			m := res.Engine
			rec.Engine = &m
		}
		mu.Lock()
		defer mu.Unlock()
		if opts.Journal != nil {
			if err := opts.Journal.Append(rec); err != nil {
				fail(i, worker, fmt.Sprintf("%s: %v", p.ID, err))
				return
			}
		}
		out.Records[i] = rec
		out.Executed++
		out.Events += res.Events
		out.Engine.Add(res.Engine)
		finished++
		st := runStatus(p, rec, "done")
		st.Worker = worker
		opts.Live.RunFinished(st)
		if opts.OnResult != nil {
			opts.OnResult(i, p, res)
		}
		if opts.OnProgress != nil {
			opts.OnProgress(finished, len(points), p)
		}
	})
	out.Elapsed = time.Since(start)
	out.Workers = stats
	return out, nil
}

// runStatus converts a point and its record into the live registry's
// run-status form.
func runStatus(p Point, rec RunRecord, state string) obs.RunStatus {
	return obs.RunStatus{
		ID:       p.ID,
		Group:    paramKey(p.Params, true),
		Seed:     p.Config.Seed,
		State:    state,
		WallMS:   rec.ElapsedMS,
		Events:   rec.Events,
		Requests: rec.Requests,
		MeanMS:   rec.Resp.Mean,
	}
}
