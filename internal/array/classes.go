package array

import (
	"raidsim/internal/stats"
	"raidsim/internal/trace"
)

// ClassResults aggregates one client class's measurements when the array
// runs a multi-client workload (Config.Classes non-empty). Unlike the
// robustness layer's two SLO buckets, these follow the workload spec's
// client classes — "oltp", "scan", "backup" — so a report can show each
// client its own operating point.
type ClassResults struct {
	Name string
	SLO  uint8 // trace.SLOGold, SLOBatch, or SLOAuto

	Requests      int64
	Reads, Writes int64
	Resp          stats.Summary // ms, post-warmup

	// DeadlineMet/Missed count completions against the class's effective
	// SLO deadline; both zero when the robustness layer is off or the
	// class has no deadline.
	DeadlineMet, DeadlineMissed int64
	// Shed counts requests rejected at admission (batch classes only).
	Shed int64
}

// Merge folds o into r (same class from another array or run).
func (r *ClassResults) Merge(o *ClassResults) {
	r.Requests += o.Requests
	r.Reads += o.Reads
	r.Writes += o.Writes
	r.Resp.Merge(&o.Resp)
	r.DeadlineMet += o.DeadlineMet
	r.DeadlineMissed += o.DeadlineMissed
	r.Shed += o.Shed
}

// EffectiveSLO resolves a class-table SLO code to the robustness layer's
// class for a request of the given size: gold and batch map directly,
// auto falls back to size classification — exactly the classless
// behavior, which is what keeps single-client specs equivalent to the
// profile path.
func EffectiveSLO(code uint8, blocks int) SLOClass {
	switch code {
	case trace.SLOGold:
		return SLOGold
	case trace.SLOBatch:
		return SLOBatch
	}
	return ClassifyBlocks(blocks)
}

// classAcct is the per-client-class accumulator behind Results.Classes.
type classAcct struct {
	reads, writes int64
	resp          stats.Summary
	met, miss     int64
	shed          int64
}

// finishClass records a completion against its client class; called from
// finish only when a class table is configured. Pure observation: no
// events, no rng.
func (c *common) finishClass(r Request, ms float64, dlMissed, dlChecked bool) {
	if int(r.CClass) >= len(c.cls) {
		return
	}
	a := &c.cls[r.CClass]
	if r.Op == trace.Read {
		a.reads++
	} else {
		a.writes++
	}
	a.resp.Add(ms)
	if dlChecked {
		if dlMissed {
			a.miss++
		} else {
			a.met++
		}
	}
}

// classResults builds the per-class result table from the accumulators;
// nil when the array is classless.
func (c *common) classResults() []ClassResults {
	if len(c.cls) == 0 {
		return nil
	}
	out := make([]ClassResults, len(c.cls))
	for i, a := range c.cls {
		out[i] = ClassResults{
			Name:           c.cfg.Classes[i].Name,
			SLO:            c.cfg.Classes[i].SLO,
			Requests:       a.reads + a.writes,
			Reads:          a.reads,
			Writes:         a.writes,
			Resp:           a.resp,
			DeadlineMet:    a.met,
			DeadlineMissed: a.miss,
			Shed:           a.shed,
		}
	}
	return out
}

// MergeClasses folds per-class tables index-wise; either side may be nil.
// An empty dst becomes a copy of src that shares none of its histograms.
func MergeClasses(dst, src []ClassResults) []ClassResults {
	if len(dst) == 0 && len(src) > 0 {
		dst = make([]ClassResults, len(src))
		for i := range src {
			dst[i].Name, dst[i].SLO = src[i].Name, src[i].SLO
		}
	}
	for i := range src {
		if i < len(dst) {
			dst[i].Merge(&src[i])
		}
	}
	return dst
}
