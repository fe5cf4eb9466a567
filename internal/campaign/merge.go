package campaign

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"raidsim/internal/stats"
)

// Group aggregates every replication (seed) of one grid cell: the
// response summaries merged bin-wise — so group percentiles are exact
// with respect to the histogram binning, not means of per-run
// percentiles — plus the per-run means the confidence interval needs.
type Group struct {
	// Key is the canonical axis assignment minus the seed
	// ("cache=16/n=10/org=raid5/trace=trace2").
	Key    string
	Params map[string]string

	Runs     int
	Requests int64
	Events   uint64

	Resp  stats.Summary // all replications, bin-merged
	Read  stats.Summary
	Write stats.Summary

	// MeanPerRun holds each replication's mean response (ms), in run-ID
	// order; Estimate derives the across-replication CI from it.
	MeanPerRun []float64
}

// Estimate returns the across-replication estimate of the group's mean
// response time: mean of per-run means with a normal-approximation 95%
// half-width (0 with a single replication).
func (g *Group) Estimate() stats.Estimate {
	n := len(g.MeanPerRun)
	if n == 0 {
		return stats.Estimate{}
	}
	var sum, sumsq float64
	for _, m := range g.MeanPerRun {
		sum += m
		sumsq += m * m
	}
	mean := sum / float64(n)
	e := stats.Estimate{Mean: mean, N: n}
	if n > 1 {
		v := (sumsq - sum*sum/float64(n)) / float64(n-1)
		if v < 0 {
			v = 0
		}
		e.Half = 1.96 * math.Sqrt(v) / math.Sqrt(float64(n))
	}
	return e
}

// Fleet is the merged view of a whole campaign: per-group aggregates
// plus the fleet-wide response summary across every run.
type Fleet struct {
	Groups []Group // sorted by Key

	Runs     int
	Requests int64
	Events   uint64
	Resp     stats.Summary // every run in the fleet, bin-merged
}

// Merge folds run records into a Fleet. Records are sorted by ID before
// any merging, so the result — including every floating-point bit of
// the merged accumulators — is independent of completion order and
// worker count. Zero-ID records (failed runs) are skipped.
func Merge(records []RunRecord) (*Fleet, error) {
	recs := make([]RunRecord, 0, len(records))
	for _, r := range records {
		if r.ID != "" {
			recs = append(recs, r)
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })

	f := &Fleet{}
	groups := make(map[string]*Group)
	var order []string
	for _, r := range recs {
		resp, err := stats.FromState(r.Resp)
		if err != nil {
			return nil, fmt.Errorf("campaign: record %s: %w", r.ID, err)
		}
		rd, err := stats.FromState(r.Read)
		if err != nil {
			return nil, fmt.Errorf("campaign: record %s: %w", r.ID, err)
		}
		wr, err := stats.FromState(r.Write)
		if err != nil {
			return nil, fmt.Errorf("campaign: record %s: %w", r.ID, err)
		}
		key := r.groupKey()
		g, ok := groups[key]
		if !ok {
			params := make(map[string]string, len(r.Params))
			for k, v := range r.Params {
				if k != seedKey {
					params[k] = v
				}
			}
			g = &Group{Key: key, Params: params}
			groups[key] = g
			order = append(order, key)
		}
		g.Runs++
		g.Requests += r.Requests
		g.Events += r.Events
		g.Resp.Merge(&resp)
		g.Read.Merge(&rd)
		g.Write.Merge(&wr)
		g.MeanPerRun = append(g.MeanPerRun, resp.Mean())

		f.Runs++
		f.Requests += r.Requests
		f.Events += r.Events
		f.Resp.Merge(&resp)
	}
	sort.Strings(order)
	for _, k := range order {
		f.Groups = append(f.Groups, *groups[k])
	}
	return f, nil
}

// Fingerprint pins the merged fleet: every group's run count and the
// exact bits of its merged mean and quantiles. Resume tests compare an
// interrupted-and-resumed campaign's fleet against an uninterrupted
// one with this.
func (f *Fleet) Fingerprint() string {
	hex := func(x float64) string { return fmt.Sprintf("%x", x) }
	var b strings.Builder
	fmt.Fprintf(&b, "runs=%d req=%d mean=%s p95=%s", f.Runs, f.Requests, hex(f.Resp.Mean()), hex(f.Resp.Quantile(0.95)))
	for i := range f.Groups {
		g := &f.Groups[i]
		fmt.Fprintf(&b, "\n%s: runs=%d req=%d mean=%s p50=%s p95=%s p99=%s max=%s",
			g.Key, g.Runs, g.Requests, hex(g.Resp.Mean()),
			hex(g.Resp.Quantile(0.5)), hex(g.Resp.Quantile(0.95)),
			hex(g.Resp.Quantile(0.99)), hex(g.Resp.Max()))
	}
	return b.String()
}

// Select returns the groups whose params match every key=value pair of
// the selector ("org=raid5" or "org=raid5,cache=16"), along with the
// residual key (params minus the selector keys) each match is
// identified by. Residual keys pair A/B groups in comparisons.
func (f *Fleet) Select(selector string) (map[string]*Group, error) {
	want := make(map[string]string)
	if selector != "" {
		for _, kv := range strings.Split(selector, ",") {
			k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return nil, fmt.Errorf("campaign: bad selector term %q (want key=value)", kv)
			}
			want[k] = v
		}
	}
	out := make(map[string]*Group)
	for i := range f.Groups {
		g := &f.Groups[i]
		match := true
		for k, v := range want {
			if g.Params[k] != v {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		residual := make(map[string]string)
		for k, v := range g.Params {
			if _, sel := want[k]; !sel {
				residual[k] = v
			}
		}
		rk := paramKey(residual, false)
		if _, dup := out[rk]; dup {
			return nil, fmt.Errorf("campaign: selector %q is ambiguous: two groups share residual %q", selector, rk)
		}
		out[rk] = g
	}
	return out, nil
}
