// Package workload synthesizes OLTP I/O traces with the characteristics
// the paper's proprietary IBM DB2 traces exhibit (section 3.1, Table 2):
// bursty transaction arrivals, a single-block-dominated request mix with
// occasional multiblock scans, skewed access distribution across disks and
// across regions within a disk, temporal locality with a tunable working
// set, and the read-before-update pattern that makes OLTP write hit ratios
// approach one.
//
// The real traces cannot be redistributed; every knob that drives an
// effect the paper attributes to them is explicit here, and the two
// built-in profiles (Trace1Profile, Trace2Profile) are calibrated to the
// published aggregates of Table 2.
package workload

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"raidsim/internal/rng"
	"raidsim/internal/sim"
	"raidsim/internal/trace"
)

// Profile parameterizes the generator.
type Profile struct {
	Name          string
	NumDisks      int   // logical data disks
	BlocksPerDisk int64 // logical blocks per disk
	Requests      int   // I/O requests to generate
	Duration      sim.Time

	WriteFraction      float64 // fraction of requests that are writes
	MultiBlockFraction float64 // fraction of requests larger than one block
	MeanMultiBlocks    float64 // mean size of a multiblock request
	MaxMultiBlocks     int     // cap on request size

	// Skew in the cold (non-local) access distribution.
	DiskZipfTheta   float64 // Zipf exponent across disks (0 = uniform)
	ExtentsPerDisk  int     // contiguous regions per disk for spatial skew
	ExtentZipfTheta float64 // Zipf exponent across extents within a disk
	// DiskHotClustered places the hottest logical disks adjacently (a hot
	// tablespace spanning neighboring volumes), so in a multi-array
	// system the skew shows up *between* arrays — which striping inside
	// an array cannot balance away. When false, hot disks scatter
	// randomly, putting the skew within arrays where striping erases it.
	DiskHotClustered bool

	// Temporal locality is a three-level mixture, tried in order:
	//
	//   - HotSetProb: a tiny, intensely reused set of HotBlocks blocks
	//     (drawn from the zones, so it is spatially compact). It gives
	//     caches their first few percent of hits at small sizes.
	//   - ZoneProb: a compact warm zone of ZoneBlocksPerDisk contiguous
	//     blocks per disk, uniformly reused. Zones make the warm
	//     working set *spatially tight*: a non-striped disk's arm
	//     hovers over its zone (seek affinity), and the zone footprint
	//     (NumDisks * ZoneBlocksPerDisk) sets where the hit-ratio curve
	//     saturates as the cache grows.
	//   - WindowProb: a diffuse re-reference of one of the last
	//     LocalityWindow addresses — recency without spatial structure.
	//
	// Whatever remains draws cold from the skewed static distribution.
	HotSetProb        float64
	HotBlocks         int
	ZoneProb          float64
	ZoneBlocksPerDisk int64
	WindowProb        float64
	LocalityWindow    int

	// ReadBeforeWriteProb is the probability a write targets a recently
	// read block (DB2 transactions read a page before updating it).
	ReadBeforeWriteProb float64

	// Transaction burst structure.
	TransactionMeanIOs float64  // mean I/Os per transaction
	IntraBurstGap      sim.Time // mean gap between I/Os of one transaction

	// Load modulation: production OLTP traces alternate busy and quiet
	// phases, so queueing happens at several times the long-run average
	// rate. During busy phases (fraction LoadBurstDuty of time, mean
	// length LoadBurstPeriod) transactions arrive LoadBurstFactor times
	// faster than average; quiet phases slow down so the long-run rate —
	// and thus Table 2's request count over the trace duration — is
	// preserved. LoadBurstFactor <= 1 disables modulation.
	LoadBurstFactor float64
	LoadBurstDuty   float64
	LoadBurstPeriod sim.Time

	// Schedule, when non-empty, shapes transaction arrivals with a
	// piecewise-constant relative rate over time — a diurnal curve, a
	// nightly batch window, a maintenance spike. Phase k applies from
	// Schedule[k].Start until the next phase's start; the shape repeats
	// with period SchedulePeriod (0 = Duration, i.e. one cycle spans the
	// whole trace). Rates are relative weights: the generator normalizes
	// them so Requests over Duration — the long-run operating point — is
	// preserved, exactly as LoadBurstFactor does for busy/quiet bursts.
	// A rate of 0 silences the client for that phase (how scheduled batch
	// windows and backup spikes are expressed). Mutually exclusive with
	// LoadBurstFactor modulation.
	Schedule       []RatePhase
	SchedulePeriod sim.Time

	Seed uint64
}

// RatePhase is one segment of a piecewise-constant arrival-rate schedule.
type RatePhase struct {
	Start sim.Time // offset of this phase within the cycle
	Rate  float64  // relative arrival-rate weight (>= 0)
}

// Validate reports configuration errors.
func (p Profile) Validate() error {
	switch {
	case p.NumDisks <= 0:
		return fmt.Errorf("workload %q: NumDisks must be positive", p.Name)
	case p.BlocksPerDisk <= 0:
		return fmt.Errorf("workload %q: BlocksPerDisk must be positive", p.Name)
	case p.Requests <= 0:
		return fmt.Errorf("workload %q: Requests must be positive", p.Name)
	case p.Duration <= 0:
		return fmt.Errorf("workload %q: Duration must be positive", p.Name)
	case p.WriteFraction < 0 || p.WriteFraction > 1:
		return fmt.Errorf("workload %q: WriteFraction outside [0,1]", p.Name)
	case p.MultiBlockFraction < 0 || p.MultiBlockFraction > 1:
		return fmt.Errorf("workload %q: MultiBlockFraction outside [0,1]", p.Name)
	case p.MaxMultiBlocks < 1:
		return fmt.Errorf("workload %q: MaxMultiBlocks must be >= 1", p.Name)
	case p.ExtentsPerDisk <= 0:
		return fmt.Errorf("workload %q: ExtentsPerDisk must be positive", p.Name)
	case int64(p.ExtentsPerDisk) > p.BlocksPerDisk:
		return fmt.Errorf("workload %q: more extents than blocks", p.Name)
	case p.HotSetProb < 0 || p.HotSetProb > 1:
		return fmt.Errorf("workload %q: HotSetProb outside [0,1]", p.Name)
	case p.ZoneProb < 0 || p.ZoneProb > 1:
		return fmt.Errorf("workload %q: ZoneProb outside [0,1]", p.Name)
	case p.WindowProb < 0 || p.WindowProb > 1:
		return fmt.Errorf("workload %q: WindowProb outside [0,1]", p.Name)
	case p.ZoneProb > 0 && (p.ZoneBlocksPerDisk <= 0 || p.ZoneBlocksPerDisk > p.BlocksPerDisk):
		return fmt.Errorf("workload %q: ZoneBlocksPerDisk %d outside (0,%d]", p.Name, p.ZoneBlocksPerDisk, p.BlocksPerDisk)
	case p.TransactionMeanIOs < 1:
		return fmt.Errorf("workload %q: TransactionMeanIOs must be >= 1", p.Name)
	}
	if p.LoadBurstFactor > 1 {
		switch {
		case p.LoadBurstDuty <= 0 || p.LoadBurstDuty >= 1:
			return fmt.Errorf("workload %q: LoadBurstDuty must be in (0,1)", p.Name)
		case p.LoadBurstDuty*p.LoadBurstFactor >= 1:
			return fmt.Errorf("workload %q: duty*factor must stay below 1 so quiet phases keep a positive rate", p.Name)
		case p.LoadBurstPeriod <= 0:
			return fmt.Errorf("workload %q: LoadBurstPeriod must be positive", p.Name)
		}
	}
	if len(p.Schedule) > 0 {
		if p.LoadBurstFactor > 1 {
			return fmt.Errorf("workload %q: Schedule and LoadBurst modulation are mutually exclusive", p.Name)
		}
		if p.Schedule[0].Start != 0 {
			return fmt.Errorf("workload %q: Schedule must start at 0, got %v", p.Name, p.Schedule[0].Start)
		}
		anyPositive := false
		for i, ph := range p.Schedule {
			if ph.Rate < 0 {
				return fmt.Errorf("workload %q: Schedule phase %d has negative rate %g", p.Name, i, ph.Rate)
			}
			if ph.Rate > 0 {
				anyPositive = true
			}
			if i > 0 && ph.Start <= p.Schedule[i-1].Start {
				return fmt.Errorf("workload %q: Schedule phase starts must strictly increase (phase %d)", p.Name, i)
			}
		}
		if !anyPositive {
			return fmt.Errorf("workload %q: Schedule needs at least one phase with positive rate", p.Name)
		}
		period := p.SchedulePeriod
		if period == 0 {
			period = p.Duration
		}
		if last := p.Schedule[len(p.Schedule)-1].Start; last >= period {
			return fmt.Errorf("workload %q: Schedule phase start %v reaches past the cycle period %v", p.Name, last, period)
		}
	}
	return nil
}

// Scaled returns a copy generating f times the requests in f times the
// duration: the arrival rate — the load — is unchanged. Use it to shrink
// experiments while preserving their operating point.
func (p Profile) Scaled(f float64) Profile {
	if f <= 0 {
		panic("workload: non-positive scale")
	}
	q := p
	q.Requests = int(float64(p.Requests) * f)
	if q.Requests < 1 {
		q.Requests = 1
	}
	q.Duration = sim.Time(float64(p.Duration) * f)
	// The macro-scale rate schedule compresses with the duration, so the
	// shape (and each phase's share of the requests) is preserved; burst
	// micro-structure (IntraBurstGap, LoadBurstPeriod) stays absolute,
	// like the locality window below.
	if len(p.Schedule) > 0 {
		q.Schedule = make([]RatePhase, len(p.Schedule))
		for i, ph := range p.Schedule {
			q.Schedule[i] = RatePhase{Start: sim.Time(float64(ph.Start) * f), Rate: ph.Rate}
		}
		q.SchedulePeriod = sim.Time(float64(p.SchedulePeriod) * f)
	}
	// The locality window stays absolute: the stack-distance distribution
	// — and with it the hit-ratio-versus-cache-size curve — must not
	// depend on how much of the trace is generated.
	return q
}

// ring is a fixed-capacity ring of recent addresses.
type ring struct {
	buf []int64
	n   int // valid entries
	w   int // next write slot
}

func newRing(capacity int) *ring {
	if capacity < 1 {
		capacity = 1
	}
	return &ring{buf: make([]int64, capacity)}
}

func (r *ring) push(v int64) {
	r.buf[r.w] = v
	r.w = (r.w + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

func (r *ring) sample(src *rng.Source) (int64, bool) {
	if r.n == 0 {
		return 0, false
	}
	return r.buf[src.Intn(r.n)], true
}

// Generate synthesizes a trace from the profile. Generation is
// deterministic for a given profile (including Seed).
func Generate(p Profile) (*trace.Trace, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	src := rng.New(p.Seed)
	arrivalSrc := src.Split()
	opSrc := src.Split()
	addrSrc := src.Split()
	sizeSrc := src.Split()

	diskZipf := rng.NewZipf(p.NumDisks, p.DiskZipfTheta)
	extentZipf := rng.NewZipf(p.ExtentsPerDisk, p.ExtentZipfTheta)
	var diskPerm []int
	if p.DiskHotClustered {
		diskPerm = centeredOrder(p.NumDisks, src.Intn(p.NumDisks))
	} else {
		diskPerm = src.Perm(p.NumDisks)
	}
	// Hot extents cluster physically around a per-disk center, so a busy
	// drive's arm hovers over a narrow band — the seek affinity the paper
	// credits non-striped layouts with (striping then spreads each
	// logical disk's hot band across all drives of the array).
	extentPerms := make([][]int, p.NumDisks)
	for d := range extentPerms {
		extentPerms[d] = centeredOrder(p.ExtentsPerDisk, src.Intn(p.ExtentsPerDisk))
	}
	extentSize := p.BlocksPerDisk / int64(p.ExtentsPerDisk)
	if extentSize < 1 {
		extentSize = 1
	}

	// coldDraw picks an address from the skewed static distribution.
	coldDraw := func() int64 {
		d := diskPerm[diskZipf.Sample(addrSrc)]
		e := extentPerms[d][extentZipf.Sample(addrSrc)]
		base := int64(e) * extentSize
		span := extentSize
		if rem := p.BlocksPerDisk - base; rem < span {
			span = rem
		}
		off := base + addrSrc.Int63n(span)
		return int64(d)*p.BlocksPerDisk + off
	}

	// Warm zones: one compact region per disk, centered on the disk's
	// hottest extent so zones and cold skew agree about which disks are
	// busy.
	zoneSize := p.ZoneBlocksPerDisk
	if zoneSize <= 0 {
		zoneSize = 1
	}
	zoneStart := make([]int64, p.NumDisks)
	for d := range zoneStart {
		center := int64(extentPerms[d][0])*extentSize + extentSize/2
		s := center - zoneSize/2
		if s < 0 {
			s = 0
		}
		if s+zoneSize > p.BlocksPerDisk {
			s = p.BlocksPerDisk - zoneSize
		}
		zoneStart[d] = s
	}
	zoneDraw := func() int64 {
		d := diskPerm[diskZipf.Sample(addrSrc)]
		return int64(d)*p.BlocksPerDisk + zoneStart[d] + addrSrc.Int63n(zoneSize)
	}

	// Hot set: a small group of blocks drawn from the zones, so it is
	// both intensely reused and spatially compact.
	hotN := p.HotBlocks
	if hotN < 1 {
		hotN = 1
	}
	hot := make([]int64, hotN)
	for i := range hot {
		if p.ZoneProb > 0 {
			hot[i] = zoneDraw()
		} else {
			hot[i] = coldDraw()
		}
	}

	// Every record makes one push, so a ring no larger than the request
	// count never wraps and samples exactly what a window-sized one
	// would; the trace's length, not the profile's window, bounds it.
	window := newRing(min(p.LocalityWindow, p.Requests))
	recentReads := newRing(min(4096, p.Requests))

	totalBlocks := int64(p.NumDisks) * p.BlocksPerDisk

	// Transaction arrival process: Poisson transactions, each a short
	// burst of I/Os.
	numTx := float64(p.Requests) / p.TransactionMeanIOs
	if numTx < 1 {
		numTx = 1
	}
	txGap := float64(p.Duration) / numTx

	t := &trace.Trace{Name: p.Name, NumDisks: p.NumDisks, BlocksPerDisk: p.BlocksPerDisk}
	t.Records = make([]trace.Record, 0, p.Requests)

	// Busy/quiet load modulation by Poisson thinning: candidate
	// transactions arrive at the busy-phase rate; quiet phases accept
	// only the fraction that keeps their rate right. Thinning keeps the
	// process exactly Poisson within each phase.
	modulated := p.LoadBurstFactor > 1
	var quietAccept float64
	var busyLen, quietLen float64
	var phaseBusy bool
	var phaseEnd float64
	candGap := txGap

	// A rate schedule uses the same thinning: candidates arrive at the
	// peak-phase rate and each is accepted with probability
	// rate(t)/peak, so within every phase the process is exactly Poisson
	// at that phase's rate, and the time-weighted mean rate keeps
	// Requests over Duration — the operating point — unchanged.
	scheduled := len(p.Schedule) > 0
	var schedPeak float64
	var rateAt func(float64) float64
	if scheduled {
		period := float64(p.SchedulePeriod)
		if period == 0 {
			period = float64(p.Duration)
		}
		var peak, weighted float64
		for k, ph := range p.Schedule {
			end := period
			if k+1 < len(p.Schedule) {
				end = float64(p.Schedule[k+1].Start)
			}
			weighted += ph.Rate * (end - float64(ph.Start))
			if ph.Rate > peak {
				peak = ph.Rate
			}
		}
		mean := weighted / period
		schedPeak = peak
		candGap = txGap * mean / peak
		sched := p.Schedule
		rateAt = func(t float64) float64 {
			tm := math.Mod(t, period)
			r := sched[len(sched)-1].Rate
			for k := 1; k < len(sched); k++ {
				if tm < float64(sched[k].Start) {
					r = sched[k-1].Rate
					break
				}
			}
			return r
		}
	}
	if modulated {
		f, d := p.LoadBurstFactor, p.LoadBurstDuty
		quietRate := (1 - d*f) / (1 - d) // relative to the average rate
		quietAccept = quietRate / f
		busyLen = float64(p.LoadBurstPeriod)
		quietLen = busyLen * (1 - d) / d
		candGap = txGap / f
		phaseBusy = arrivalSrc.Bool(d)
		if phaseBusy {
			phaseEnd = arrivalSrc.Exp(busyLen)
		} else {
			phaseEnd = arrivalSrc.Exp(quietLen)
		}
	}

	var now float64
	for len(t.Records) < p.Requests {
		now += arrivalSrc.Exp(candGap)
		if modulated {
			for now > phaseEnd {
				phaseBusy = !phaseBusy
				if phaseBusy {
					phaseEnd += arrivalSrc.Exp(busyLen)
				} else {
					phaseEnd += arrivalSrc.Exp(quietLen)
				}
			}
			if !phaseBusy && !arrivalSrc.Bool(quietAccept) {
				continue
			}
		}
		if scheduled && !arrivalSrc.Bool(rateAt(now)/schedPeak) {
			continue
		}
		burst := opSrc.Geometric(p.TransactionMeanIOs)
		bt := now
		for i := 0; i < burst && len(t.Records) < p.Requests; i++ {
			if i > 0 && p.IntraBurstGap > 0 {
				bt += arrivalSrc.Exp(float64(p.IntraBurstGap))
			}
			isWrite := opSrc.Bool(p.WriteFraction)

			var lba int64
			picked := false
			switch {
			case isWrite && opSrc.Bool(p.ReadBeforeWriteProb):
				lba, picked = recentReads.sample(addrSrc)
			case addrSrc.Bool(p.HotSetProb):
				lba = hot[addrSrc.Intn(hotN)]
				picked = true
			case addrSrc.Bool(p.ZoneProb):
				lba = zoneDraw()
				picked = true
			case addrSrc.Bool(p.WindowProb):
				lba, picked = window.sample(addrSrc)
			}
			if !picked {
				lba = coldDraw()
			}

			blocks := 1
			if sizeSrc.Bool(p.MultiBlockFraction) {
				blocks = 1 + sizeSrc.Geometric(p.MeanMultiBlocks-1)
				if blocks < 2 {
					blocks = 2
				}
				if blocks > p.MaxMultiBlocks {
					blocks = p.MaxMultiBlocks
				}
				// Multiblock requests are sequential scans; keep them on
				// one logical disk.
				diskEnd := (lba/p.BlocksPerDisk + 1) * p.BlocksPerDisk
				if rem := diskEnd - lba; int64(blocks) > rem {
					blocks = int(rem)
				}
			}
			if lba+int64(blocks) > totalBlocks {
				lba = totalBlocks - int64(blocks)
			}

			op := trace.Read
			if isWrite {
				op = trace.Write
			}
			t.Records = append(t.Records, trace.Record{
				At:     sim.Time(bt),
				Op:     op,
				LBA:    lba,
				Blocks: blocks,
			})
			window.push(lba)
			if !isWrite {
				recentReads.push(lba)
			}
		}
	}
	// Bursts are generated in arrival order but intra-burst jitter can
	// reorder across bursts; restore global time order cheaply.
	sortRecords(t.Records)
	return t, nil
}

// sortMovesPerRecord budgets sortRecords' insertion pass: past this
// many record moves per record on average, the input is not nearly
// sorted and insertion sort would degenerate toward O(n^2).
const sortMovesPerRecord = 8

func sortRecords(rs []trace.Record) {
	// A single generator's stream is nearly sorted: only adjacent bursts
	// overlap, so insertion sort is O(n) in practice (Trace 1 moves 0.75
	// records per record, though single records travel over 100
	// places). Input past the move budget falls back to a stable
	// O(n log n) sort. Insertion sort is stable, so stopping it midway and
	// stable-sorting the rest never changes the output.
	budget := sortMovesPerRecord * len(rs)
	for i := 1; i < len(rs); i++ {
		x := rs[i]
		j := i
		for ; j > 0 && x.At < rs[j-1].At; j-- {
			rs[j] = rs[j-1]
		}
		rs[j] = x
		if budget -= i - j; budget < 0 {
			slices.SortStableFunc(rs, func(a, b trace.Record) int {
				return cmp.Compare(a.At, b.At)
			})
			return
		}
	}
}

// centeredOrder ranks n positions by distance from center, alternating
// sides: center, center+1, center-1, center+2, ... (wrapping at the
// edges). Rank r is the r-th hottest extent's physical index.
func centeredOrder(n, center int) []int {
	out := make([]int, 0, n)
	out = append(out, center)
	for step := 1; len(out) < n; step++ {
		hi := center + step
		if hi >= n {
			hi -= n
		}
		out = append(out, hi)
		if len(out) == n {
			break
		}
		lo := center - step
		if lo < 0 {
			lo += n
		}
		if lo != hi {
			out = append(out, lo)
		}
	}
	return out
}
