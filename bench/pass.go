package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"raidsim/internal/campaign"
	"raidsim/internal/core"
)

// fleetKey is the fingerprint key of the fleet's whole-campaign line.
const fleetKey = "fleet"

// outcome is what one pass over a workload's inputs produced.
type outcome struct {
	wallS     float64   // host s: simulate, merge, fingerprint and checks
	simulateS float64   // host s of Run/RunClosedLoop calls, or Execute + Merge
	requests  int64     // simulated requests completed
	events    uint64    // simulated engine events
	runMS     []float64 // host ms per simulation run
	attempted int       // simulation runs attempted

	// fps maps a run id (fleet-grid: a group key, or fleetKey) to its
	// simulated-output fingerprint; weight is the number of runs behind
	// each key and bad marks keys whose runs failed or broke an invariant.
	fps    map[string]string
	weight map[string]int
	bad    map[string]string

	// Kept for the traced run's per-layer metrics.
	records  []campaign.RunRecord // core runs as journal records
	camp     *campaign.Outcome
	executeS float64
	mergeS   float64
}

// failed counts the runs behind keys that are bad or, when want is set,
// whose fingerprint differs from want's.
func (o *outcome) failed(want map[string]string) int {
	n := 0
	for k, runs := range o.weight {
		if _, bad := o.bad[k]; bad || (want != nil && o.fps[k] != want[k]) {
			n += runs
		}
	}
	return n
}

// digest hashes every fingerprint, so two runs of the same inputs compare
// by equality.
func (o *outcome) digest() string {
	keys := make([]string, 0, len(o.fps))
	for k := range o.fps {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		fmt.Fprintf(h, "%s\t%s\n", k, o.fps[k])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func (o *outcome) mark(key, fp string, runs int) {
	o.fps[key] = fp
	o.weight[key] = runs
}

// pass runs the workload's simulations once. tr records spans around each
// call (nil: untraced); ag, when set, arms the engine self-meter and folds
// every run's results. journalDir holds fleet-grid's temporary journal.
// sm, when set, calibrates between runs (fleet-grid: between chunks) and
// the pass's host times are scaled to the reference speed.
func (in *input) pass(tr *tracer, ag *agg, journalDir string, sm *speedMeter) (*outcome, error) {
	o := &outcome{fps: map[string]string{}, weight: map[string]int{}, bad: map[string]string{}}
	sm.begin()
	t0 := time.Now()
	if in.points != nil {
		if err := in.campaignPass(o, tr, ag, journalDir, sm); err != nil {
			return nil, err
		}
	} else {
		for _, r := range in.runs {
			in.corePass(o, r, tr, ag)
			sm.step()
		}
	}
	if sm == nil {
		o.wallS = time.Since(t0).Seconds()
	} else {
		var f float64
		o.wallS, f = sm.end()
		o.simulateS *= f
	}
	return o, nil
}

func (in *input) corePass(o *outcome, r simRun, tr *tracer, ag *agg) {
	cfg := r.cfg
	cfg.SelfMetrics = ag != nil
	sp := tr.begin("core.run/" + r.id)
	t := time.Now()
	var res *core.Results
	var makespan int64
	var err error
	if in.closed {
		var cl *core.ClosedLoopResults
		if cl, err = core.RunClosedLoop(cfg, r.tr, core.ClosedLoopConfig{MPL: closedMPL}); err == nil {
			res, makespan = &cl.Results, cl.Makespan
		}
	} else {
		res, err = core.Run(cfg, r.tr)
	}
	d := time.Since(t)
	tr.end(sp)
	o.attempted++
	o.simulateS += d.Seconds()
	o.runMS = append(o.runMS, ms(d))
	if err != nil {
		o.mark(r.id, "error", 1)
		o.bad[r.id] = err.Error()
		return
	}
	o.requests += res.Requests
	o.events += res.Events
	o.mark(r.id, fingerprint(res, makespan), 1)
	if msg := checkRun(res, len(r.tr.Records)); msg != "" {
		o.bad[r.id] = msg
	}
	o.records = append(o.records, campaign.NewRecord(campaign.Point{ID: r.id, Config: cfg}, res, ms(d)))
	ag.add(res)
}

// fleetChunk is how many points one campaign.Execute call of a fleet-grid
// pass runs. The pass executes its grid in chunks, all appending to one
// journal, so that the speed meter can calibrate between them.
const fleetChunk = 125

// campaignPass runs the fleet grid on the worker pool with a journal in a
// fresh temporary directory, then merges the records.
func (in *input) campaignPass(o *outcome, tr *tracer, ag *agg, journalDir string, sm *speedMeter) error {
	sp := tr.begin("campaign.execute")
	dir, err := os.MkdirTemp(journalDir, "journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	j, err := campaign.OpenJournal(filepath.Join(dir, "fleet.jsonl"), "fleet", 0)
	if err != nil {
		return err
	}
	opts := campaign.Options{Workers: workers, Journal: j, SelfMetrics: ag != nil}
	if ag != nil {
		opts.OnResult = func(_ int, _ campaign.Point, res *core.Results) { ag.add(res) }
	}
	out := &campaign.Outcome{}
	for lo := 0; lo < len(in.points) && err == nil; lo += fleetChunk {
		var c *campaign.Outcome
		t := time.Now()
		c, err = campaign.Execute(in.points[lo:min(lo+fleetChunk, len(in.points))], opts)
		o.executeS += time.Since(t).Seconds()
		if err == nil {
			addOutcome(out, c)
			sm.step()
		}
	}
	if cerr := j.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("closing journal: %w", cerr)
	}
	tr.end(sp)
	if err != nil {
		return err
	}

	sp = tr.begin("campaign.merge")
	t := time.Now()
	fleet, err := campaign.Merge(out.Records)
	o.mergeS = time.Since(t).Seconds()
	tr.end(sp)
	if err != nil {
		return err
	}
	o.simulateS = o.executeS + o.mergeS
	o.camp = out
	o.events = out.Events
	o.attempted = len(in.points)

	lines := strings.Split(fleet.Fingerprint(), "\n")
	o.mark(fleetKey, lines[0], 1)
	for i, g := range fleet.Groups {
		o.mark(g.Key, lines[i+1], g.Runs)
	}
	for i, rec := range out.Records {
		o.requests += rec.Requests
		o.runMS = append(o.runMS, rec.ElapsedMS)
		key := groupKey(in.points[i].Params)
		if msg := out.Errors[i]; msg != "" {
			o.bad[key] = msg
			o.weight[key]++ // a failed run is missing from its group's count
		} else if rec.Requests != int64(len(in.points[i].Trace.Records)) {
			o.bad[key] = fmt.Sprintf("%s completed %d of %d requests", rec.ID, rec.Requests, len(in.points[i].Trace.Records))
		}
	}
	if fleet.Runs != len(in.points) {
		o.bad[fleetKey] = fmt.Sprintf("merged %d of %d runs", fleet.Runs, len(in.points))
	}
	return nil
}

// addOutcome appends chunk c's records and errors to out and adds up its
// counters, elapsed time and per-worker accounting.
func addOutcome(out, c *campaign.Outcome) {
	out.Records = append(out.Records, c.Records...)
	out.Errors = append(out.Errors, c.Errors...)
	out.Executed += c.Executed
	out.Skipped += c.Skipped
	out.Events += c.Events
	out.Elapsed += c.Elapsed
	out.Engine.Add(c.Engine)
	for i, w := range c.Workers {
		if i == len(out.Workers) {
			out.Workers = append(out.Workers, w)
			continue
		}
		out.Workers[i].Tasks += w.Tasks
		out.Workers[i].Steals += w.Steals
		out.Workers[i].Busy += w.Busy
	}
}

// groupKey renders a point's params minus the replication seed in the
// canonical form campaign.Group.Key uses.
func groupKey(params map[string]string) string {
	var kv []string
	for k, v := range params {
		if k != "seed" {
			kv = append(kv, k+"="+v)
		}
	}
	sort.Strings(kv)
	return strings.Join(kv, "/")
}

// checkRun verifies what must hold for any seed: every record was either
// completed or shed, and every completion was measured.
func checkRun(r *core.Results, records int) string {
	var shed int64
	for _, s := range r.Robust.Shed {
		shed += s
	}
	if r.Requests+shed != int64(records) {
		return fmt.Sprintf("%d completed + %d shed != %d records", r.Requests, shed, records)
	}
	if r.Resp.N() != r.Requests {
		return fmt.Sprintf("%d responses measured for %d requests", r.Resp.N(), r.Requests)
	}
	return ""
}

// fingerprint pins a run's simulated output: requests, the exact bits of
// the mean, p50 and p99 response and the read and write means, hit
// counts, disk, parity and held-rotation counts, and the cache, fault,
// robustness and client-class counters. It leaves out Events and every
// host-time field, so an engine change that executes fewer events for the
// same simulation still matches.
func fingerprint(r *core.Results, makespan int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "req=%d resp=%d/%x p50=%x p99=%x rd=%d/%x wr=%d/%x hits=%d,%d,%d,%d",
		r.Requests, r.Resp.N(), r.Resp.Mean(), r.Resp.Quantile(0.5), r.Resp.Quantile(0.99),
		r.ReadResp.N(), r.ReadResp.Mean(), r.WriteResp.N(), r.WriteResp.Mean(),
		r.ReadHits, r.ReadMisses, r.WriteHits, r.WriteMisses)
	var acc int64
	h := fnv.New64a()
	for _, a := range r.DiskAccesses {
		acc += a
		fmt.Fprintf(h, "%d,", a)
	}
	fmt.Fprintf(&b, " disk=%d/%016x parity=%d held=%d", acc, h.Sum64(), r.ParityAccesses, r.HeldRotations)
	c := r.Cache
	fmt.Fprintf(&b, " cache=%d,%d,%d,%d,%d,%d,%d,%d,%d,%d", c.Inserts, c.Evictions, c.DirtyEvictions,
		c.OldCaptured, c.OldSkipped, c.Destages, c.ParityQueued, c.ParityStalls, c.PeakUsed, c.PeakParity)
	f := r.Fault
	fmt.Fprintf(&b, " fault=%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d",
		f.Failures, f.CacheFailures, f.SparesUsed, f.Rebuilds, f.RebuildTime, f.DegradedTime,
		f.DegradedWindows, f.DataLossEvents, f.LostReadBlocks, f.LostWriteBlocks, f.DirtyBlocksLost,
		f.SectorErrors, f.SectorRetries, f.SectorReconstructs, f.FailoverReads,
		f.SickOnsets, f.SickClears, f.Hangs, f.TransientErrors)
	rb := r.Robust
	fmt.Fprintf(&b, " robust=%v,%v,%v,%d,%d,%d,%d,%d,%d", rb.DeadlineMet, rb.DeadlineMiss, rb.Shed,
		rb.Retries, rb.RetriesExhausted, rb.AttemptsExhausted, rb.Hedges, rb.HedgeWins, rb.HedgeLosses)
	for _, cl := range r.Classes {
		fmt.Fprintf(&b, " class=%s/%d/%d/%d/%x/%d/%d/%d", cl.Name, cl.Requests, cl.Reads, cl.Writes,
			cl.Resp.Mean(), cl.DeadlineMet, cl.DeadlineMissed, cl.Shed)
	}
	if makespan > 0 {
		fmt.Fprintf(&b, " makespan=%d", makespan)
	}
	return b.String()
}
