package obs

import (
	"fmt"
	"io"
	"strings"

	"raidsim/internal/sim"
)

// Series is windowed time-series data, handed over by a Recorder: one
// entry per fixed-width window from t = 0. Merging per-array Series keeps
// the raw histograms, so system-level quantiles stay exact with respect
// to the binning (a p95 of merged histograms, not a mean of per-array
// p95s).
type Series struct {
	Window sim.Time
	Disks  int
	End    sim.Time
	// Classes names the workload client classes the per-class columns
	// cover; empty for classless runs (whose CSV output is unchanged).
	Classes []string

	wins []*window
}

// Point is one rendered window of a Series.
type Point struct {
	Start sim.Time
	End   sim.Time

	Requests      int64
	Reads, Writes int64
	ThroughputRPS float64 // completed requests per second of simulated time

	MeanMS, P50MS, P95MS, P99MS, MaxMS float64

	UtilMean float64 // mean per-disk busy fraction in the window
	UtilMax  float64 // busiest drive's fraction

	QueueMean float64 // time-sampled mean total queue depth
	DirtyFrac float64 // time-sampled mean cache dirty fraction

	Destages       int64 // destage batches issued
	DestagedBlocks int64
	RebuildBlocks  int64

	DegradedFrac float64 // fraction of the window spent degraded
	Degraded     bool    // any degraded time at all
	Steps        uint64  // engine events executed

	Timeouts  int64 // requests completing past their deadline
	Retries   int64 // transient-error retries issued
	Hedges    int64 // hedged read legs dispatched
	HedgeWins int64 // hedge legs that beat the primary
	Shed      int64 // requests rejected by admission control

	// Per-class completions, mean and p95 response (from the per-class
	// log-bucketed histograms), indexed like Series.Classes; nil on
	// classless series.
	ClassRequests []int64
	ClassMeanMS   []float64
	ClassP95MS    []float64
}

// Len returns the number of windows.
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	return len(s.wins)
}

// Merge folds o into s window by window (summing counters, merging
// histograms and busy time). The receiver is extended if o is longer.
// Merging series with different window widths is a programming error.
func (s *Series) Merge(o *Series) {
	if o == nil {
		return
	}
	if s.Window != o.Window {
		panic(fmt.Sprintf("obs: merging series with windows %d and %d", s.Window, o.Window))
	}
	if len(s.Classes) == 0 {
		s.Classes = o.Classes
	}
	for len(s.wins) < len(o.wins) {
		s.wins = append(s.wins, &window{})
	}
	s.Disks += o.Disks
	if o.End > s.End {
		s.End = o.End
	}
	for i, ow := range o.wins {
		w := s.wins[i]
		w.hist.Merge(&ow.hist)
		w.reads += ow.reads
		w.writes += ow.writes
		w.busy = append(w.busy, ow.busy...)
		w.queueSum += ow.queueSum
		w.queueN += ow.queueN
		w.dirtySum += ow.dirtySum
		w.dirtyN += ow.dirtyN
		w.destages += ow.destages
		w.destaged += ow.destaged
		w.rebuild += ow.rebuild
		w.degraded += ow.degraded
		w.steps += ow.steps
		w.timeouts += ow.timeouts
		w.retries += ow.retries
		w.hedges += ow.hedges
		w.hedgeWins += ow.hedgeWins
		w.shed += ow.shed
		if len(w.cls) < len(ow.cls) {
			w.cls = append(w.cls, make([]classWindow, len(ow.cls)-len(w.cls))...)
		}
		for j := range ow.cls {
			c, oc := &w.cls[j], &ow.cls[j]
			c.n += oc.n
			c.ms += oc.ms
			c.hist.Merge(&oc.hist)
		}
	}
}

// Points renders every window. The last window may be partial; its
// throughput and utilization use the true covered span.
func (s *Series) Points() []Point {
	if s == nil {
		return nil
	}
	out := make([]Point, len(s.wins))
	for i, w := range s.wins {
		start := sim.Time(i) * s.Window
		end := start + s.Window
		if i == len(s.wins)-1 && s.End > start && s.End < end {
			end = s.End
		}
		span := end - start
		p := Point{
			Start: start, End: end,
			Requests: w.hist.N(), Reads: w.reads, Writes: w.writes,
			MeanMS: w.hist.Mean(),
			P50MS:  w.hist.Quantile(0.50),
			P95MS:  w.hist.Quantile(0.95),
			P99MS:  w.hist.Quantile(0.99),
			MaxMS:  w.hist.Max(),

			Destages: w.destages, DestagedBlocks: w.destaged,
			RebuildBlocks: w.rebuild,
			Degraded:      w.degraded > 0,
			Steps:         w.steps,

			Timeouts: w.timeouts, Retries: w.retries,
			Hedges: w.hedges, HedgeWins: w.hedgeWins, Shed: w.shed,
		}
		if n := len(s.Classes); n > 0 {
			p.ClassRequests = make([]int64, n)
			p.ClassMeanMS = make([]float64, n)
			p.ClassP95MS = make([]float64, n)
			for j := 0; j < n && j < len(w.cls); j++ {
				c := &w.cls[j]
				p.ClassRequests[j] = c.n
				if c.n > 0 {
					p.ClassMeanMS[j] = c.ms / float64(c.n)
				}
				p.ClassP95MS[j] = c.hist.Quantile(0.95)
			}
		}
		if span > 0 {
			p.ThroughputRPS = float64(p.Requests) / (float64(span) / float64(sim.Second))
			p.DegradedFrac = float64(w.degraded) / float64(span)
			var busySum, busyMax sim.Time
			for _, b := range w.busy {
				busySum += b
				if b > busyMax {
					busyMax = b
				}
			}
			if n := len(w.busy); n > 0 {
				p.UtilMean = float64(busySum) / float64(sim.Time(n)*span)
				p.UtilMax = float64(busyMax) / float64(span)
			}
		}
		if w.queueN > 0 {
			p.QueueMean = float64(w.queueSum) / float64(w.queueN)
		}
		if w.dirtyN > 0 {
			p.DirtyFrac = w.dirtySum / float64(w.dirtyN)
		}
		out[i] = p
	}
	return out
}

// csvHeader lists the CSV columns WriteCSV emits, in order.
var csvHeader = []string{
	"t_s", "requests", "reads", "writes", "throughput_rps",
	"mean_ms", "p50_ms", "p95_ms", "p99_ms", "max_ms",
	"util_mean", "util_max", "queue_mean", "cache_dirty",
	"destages", "destaged_blocks", "rebuild_blocks", "degraded_frac", "events",
	"timeouts", "retries", "hedges", "hedge_wins", "shed",
}

// SeriesSchemaVersion identifies the series CSV format, written as a
// leading "# schema" comment line so downstream tooling can detect drift.
// Version 2 appended the robustness columns (timeouts..shed).
const SeriesSchemaVersion = "raidsim-series/2"

// SeriesSchemaVersionClasses is the schema when per-class columns are
// present (three trailing columns per workload client class: requests,
// mean, p95). Classless series keep emitting version 2 byte-for-byte.
// Version 4 added the per-class p95 column (version 3 had requests and
// mean only).
const SeriesSchemaVersionClasses = "raidsim-series/4"

// colName flattens a class name into a CSV column stem.
func colName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		}
		return '_'
	}, s)
}

// WriteCSV writes a schema comment, the header, then one window per row.
func (s *Series) WriteCSV(w io.Writer) error {
	schema, header := SeriesSchemaVersion, csvHeader
	if len(s.Classes) > 0 {
		schema = SeriesSchemaVersionClasses
		header = append([]string(nil), csvHeader...)
		for _, c := range s.Classes {
			header = append(header, colName(c)+"_requests", colName(c)+"_mean_ms", colName(c)+"_p95_ms")
		}
	}
	if _, err := fmt.Fprintf(w, "# schema %s\n", schema); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, strings.Join(header, ",")); err != nil {
		return err
	}
	for _, p := range s.Points() {
		_, err := fmt.Fprintf(w, "%.3f,%d,%d,%d,%.2f,%.3f,%.3f,%.3f,%.3f,%.3f,%.4f,%.4f,%.2f,%.4f,%d,%d,%d,%.3f,%d,%d,%d,%d,%d,%d",
			float64(p.Start)/float64(sim.Second),
			p.Requests, p.Reads, p.Writes, p.ThroughputRPS,
			p.MeanMS, p.P50MS, p.P95MS, p.P99MS, p.MaxMS,
			p.UtilMean, p.UtilMax, p.QueueMean, p.DirtyFrac,
			p.Destages, p.DestagedBlocks, p.RebuildBlocks, p.DegradedFrac, p.Steps,
			p.Timeouts, p.Retries, p.Hedges, p.HedgeWins, p.Shed)
		if err != nil {
			return err
		}
		for j := range s.Classes {
			if _, err := fmt.Fprintf(w, ",%d,%.3f,%.3f", p.ClassRequests[j], p.ClassMeanMS[j], p.ClassP95MS[j]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
