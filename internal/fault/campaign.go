package fault

import (
	"fmt"

	"raidsim/internal/campaign/shard"
	"raidsim/internal/reliability"
	"raidsim/internal/rng"
)

// Scheme selects the redundancy group a campaign stresses.
type Scheme int

// Campaign schemes.
const (
	// MirrorPair is one mirrored pair: data is lost when both drives are
	// down at once.
	MirrorPair Scheme = iota
	// ParityArray is one N+1 parity group (RAID4, RAID5 or Parity
	// Striping): data is lost when any two of its drives are down at once.
	ParityArray
)

func (s Scheme) String() string {
	if s == MirrorPair {
		return "mirror-pair"
	}
	return "parity-array"
}

// CampaignConfig describes a Monte-Carlo time-to-data-loss campaign: many
// independent seeded lifetimes of one redundancy group under exponential
// drive failures and exponential repairs (the assumptions of the analytic
// Markov models in package reliability), measured until the first
// data-loss event.
type CampaignConfig struct {
	Scheme    Scheme
	N         int // data disks; ParityArray simulates N+1 drives, MirrorPair ignores it
	MTTFHours float64
	MTTRHours float64
	Runs      int
	Seed      uint64
	// Workers shards the runs across goroutines (0 = GOMAXPROCS). The
	// result is bit-identical for every worker count: per-run seeds are
	// drawn from one sequential stream up front, and the reduction walks
	// runs in index order.
	Workers int
}

// CampaignResult reports a campaign's empirical MTTDL next to the
// analytic predictions it should agree with.
type CampaignResult struct {
	Runs                int
	EmpiricalMTTDLHours float64
	// AnalyticMTTDLHours is the standard approximation the paper's
	// footnote uses (MTTF^2-over-repair-window form).
	AnalyticMTTDLHours float64
	// ExactMTTDLHours is the exact Markov-chain result; the empirical
	// mean converges to this as Runs grows.
	ExactMTTDLHours float64
	MinHours        float64
	MaxHours        float64
}

// Ratio returns empirical / exact — the figure of merit (1.0 is perfect
// agreement).
func (r *CampaignResult) Ratio() float64 {
	if r.ExactMTTDLHours == 0 {
		return 0
	}
	return r.EmpiricalMTTDLHours / r.ExactMTTDLHours
}

// RunCampaign measures the empirical MTTDL of the configured group over
// cfg.Runs independent seeded lifetimes.
func RunCampaign(cfg CampaignConfig) (*CampaignResult, error) {
	if cfg.Runs <= 0 {
		return nil, fmt.Errorf("fault: campaign needs at least one run")
	}
	if cfg.MTTFHours <= 0 || cfg.MTTRHours <= 0 {
		return nil, fmt.Errorf("fault: campaign needs positive MTTF and MTTR")
	}
	disks := 2
	if cfg.Scheme == ParityArray {
		if cfg.N < 2 {
			return nil, fmt.Errorf("fault: parity campaign needs N >= 2")
		}
		disks = cfg.N + 1
	}
	p := reliability.Params{DiskMTTFHours: cfg.MTTFHours, MTTRHours: cfg.MTTRHours}
	res := &CampaignResult{Runs: cfg.Runs}
	if cfg.Scheme == MirrorPair {
		res.AnalyticMTTDLHours = reliability.MirrorPairMTTDLHours(p)
		res.ExactMTTDLHours = reliability.MirrorPairMTTDLHoursExact(p)
	} else {
		res.AnalyticMTTDLHours = reliability.ArrayMTTDLHours(p, cfg.N)
		res.ExactMTTDLHours = reliability.ArrayMTTDLHoursExact(p, cfg.N)
	}

	// Draw every run's seed from one sequential stream (Split() is
	// New(Uint64()), so this matches spawning each child in run order),
	// then shard the independent lifetimes across the pool.
	src := rng.New(cfg.Seed ^ 0xca3b_a16e_ca3b_a16e)
	seeds := make([]uint64, cfg.Runs)
	for run := range seeds {
		seeds[run] = src.Uint64()
	}
	times := make([]float64, cfg.Runs)
	shard.MapStats(cfg.Workers, cfg.Runs, func(_, run int) {
		times[run] = timeToDataLoss(rng.New(seeds[run]), disks, cfg.MTTFHours, cfg.MTTRHours)
	})
	var sum float64
	for run, t := range times {
		sum += t
		if run == 0 || t < res.MinHours {
			res.MinHours = t
		}
		if t > res.MaxHours {
			res.MaxHours = t
		}
	}
	res.EmpiricalMTTDLHours = sum / float64(cfg.Runs)
	return res, nil
}

// timeToDataLoss simulates one group lifetime: every drive alternates
// alive (exponential MTTF) and under-repair (exponential MTTR); the run
// ends the instant a second drive dies while another is still down.
func timeToDataLoss(src *rng.Source, disks int, mttf, mttr float64) float64 {
	next := make([]float64, disks) // next state-change time per drive
	down := make([]bool, disks)
	for d := range next {
		next[d] = src.Exp(mttf)
	}
	failed := 0
	for {
		// Advance to the earliest state change.
		d := 0
		for i := 1; i < disks; i++ {
			if next[i] < next[d] {
				d = i
			}
		}
		t := next[d]
		if down[d] {
			// Repair completes.
			down[d] = false
			failed--
			next[d] = t + src.Exp(mttf)
			continue
		}
		down[d] = true
		failed++
		if failed >= 2 {
			return t
		}
		next[d] = t + src.Exp(mttr)
	}
}
