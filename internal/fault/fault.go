// Package fault is the simulator's fault-injection subsystem. It turns
// "what if a drive dies mid-run?" into a first-class, deterministic part
// of a simulation: disk failures scheduled at fixed times or drawn from
// an exponential MTTF process, latent sector errors sampled per media
// read, and NVRAM cache failure. The injector only decides *when* faults
// happen; *what* a fault means — degraded reads, single-copy writes,
// hot-spare rebuild — is the array controller's job (package array),
// reached through the Handler interface.
//
// Determinism: every stochastic decision comes from dedicated rng streams
// derived from Config.Seed, independent of the request path, and all
// events run on the array's single-threaded sim.Engine. The same seed and
// workload therefore produce bit-identical results, failures included.
package fault

import (
	"fmt"
	"math"

	"raidsim/internal/rng"
	"raidsim/internal/sim"
)

// DiskFail is one deterministic failure: disk Disk dies at time At.
// At == 0 models a pre-failed array (the drive is dead before the first
// request arrives).
type DiskFail struct {
	Disk int
	At   sim.Time
}

// SickDisk describes a drive that misbehaves without dying: from At
// until Until (forever when Until is zero) the drive serves requests
// SlowFactor times slower, each media read pass fails transiently with
// per-block probability TransientRate (succeeding on retry), and — when
// HangEvery is positive — the drive periodically freezes for HangFor.
// A sick drive still returns correct data; it is the "limping but not
// dead" failure mode between healthy and failed.
type SickDisk struct {
	Disk int
	At   sim.Time
	// Until ends the sickness; zero means it never clears.
	Until sim.Time
	// SlowFactor multiplies seek and transfer times while sick. Values
	// <= 1 leave timing unchanged.
	SlowFactor float64
	// TransientRate is the per-block probability that a media read pass
	// fails transiently. Unlike latent sector errors, a retry of the
	// same blocks may succeed.
	TransientRate float64
	// HangEvery, when positive, freezes the drive for HangFor at this
	// period while sick (the first hang starts HangEvery after onset).
	HangEvery sim.Time
	HangFor   sim.Time
}

// MaxReadRetries bounds the retry-then-reconstruct loop of a latent
// sector error: a read is retried this many times before it is recovered
// from redundancy.
const MaxReadRetries = 2

// Config describes a fault campaign against one array. The zero value
// injects nothing.
type Config struct {
	// DiskFails are deterministic failure events.
	DiskFails []DiskFail
	// MTTF, when positive, gives every drive an independent exponential
	// lifetime with this mean; a replacement (hot spare swapped in after
	// rebuild) draws a fresh lifetime.
	MTTF sim.Time
	// CacheFailAt, when positive, fails the NVRAM controller cache at
	// this time. Organizations without a cache ignore it.
	CacheFailAt sim.Time
	// SectorErrorRate is the per-block probability that a media read pass
	// surfaces a latent sector error. Errors are retried up to
	// MaxReadRetries times and then recovered from redundancy (or counted
	// as lost on non-redundant organizations).
	SectorErrorRate float64
	// SickDisks are drives that degrade without failing: slow service,
	// transient read errors, intermittent hangs.
	SickDisks []SickDisk
	// Seed drives the stochastic streams (lifetimes, sector errors).
	Seed uint64
}

// Enabled reports whether the config injects any fault at all.
func (c Config) Enabled() bool {
	return len(c.DiskFails) > 0 || c.MTTF > 0 || c.CacheFailAt > 0 ||
		c.SectorErrorRate > 0 || len(c.SickDisks) > 0
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	for _, f := range c.DiskFails {
		if f.Disk < 0 {
			return fmt.Errorf("fault: negative disk index %d", f.Disk)
		}
		if f.At < 0 {
			return fmt.Errorf("fault: disk %d failure scheduled at negative time %d", f.Disk, f.At)
		}
	}
	if c.MTTF < 0 {
		return fmt.Errorf("fault: negative MTTF")
	}
	if c.CacheFailAt < 0 {
		return fmt.Errorf("fault: negative cache failure time")
	}
	if c.SectorErrorRate < 0 || c.SectorErrorRate >= 1 {
		return fmt.Errorf("fault: sector error rate %g outside [0,1)", c.SectorErrorRate)
	}
	for _, s := range c.SickDisks {
		if s.Disk < 0 {
			return fmt.Errorf("fault: negative sick disk index %d", s.Disk)
		}
		if s.At < 0 {
			return fmt.Errorf("fault: disk %d sickness scheduled at negative time %d", s.Disk, s.At)
		}
		if s.Until != 0 && s.Until <= s.At {
			return fmt.Errorf("fault: disk %d sickness clears at %d, not after onset %d", s.Disk, s.Until, s.At)
		}
		if s.TransientRate < 0 || s.TransientRate >= 1 {
			return fmt.Errorf("fault: transient error rate %g outside [0,1)", s.TransientRate)
		}
		if s.SlowFactor < 0 {
			return fmt.Errorf("fault: negative slow factor %g", s.SlowFactor)
		}
		if s.HangEvery < 0 || s.HangFor < 0 {
			return fmt.Errorf("fault: negative hang timing on disk %d", s.Disk)
		}
		if s.HangEvery > 0 && s.HangFor <= 0 {
			return fmt.Errorf("fault: disk %d hangs every %d but for no duration", s.Disk, s.HangEvery)
		}
	}
	return nil
}

// Handler is the fault consumer — implemented by array controllers. Both
// calls are idempotent: failing an already-failed disk (or cache) is a
// no-op, so overlapping deterministic and stochastic events are harmless.
type Handler interface {
	// FailDisk kills physical disk d of the array at the current time.
	FailDisk(d int)
	// FailCache kills the NVRAM cache, losing its dirty contents.
	FailCache()
}

// SickHandler is the optional extension a Handler implements to receive
// sick-disk events. Handlers without it simply never see sickness (the
// transient-error sampling still answers false for them because they
// never query TransientFaulty with an active rate).
type SickHandler interface {
	// SickDisk marks drive s.Disk sick at the current time with the
	// given symptoms.
	SickDisk(s SickDisk)
	// SickClear ends drive d's sickness at the current time.
	SickClear(d int)
	// HangDisk freezes drive d until the given time.
	HangDisk(d int, until sim.Time)
}

// Injector schedules the configured faults onto an engine and answers
// per-read sector-error queries.
type Injector struct {
	eng    *sim.Engine
	cfg    Config
	ndisks int
	h      Handler

	life  *rng.Source // drive lifetimes
	media *rng.Source // sector errors
	trans *rng.Source // transient (sick-disk) read errors

	// transRate[d] is the active per-block transient-error rate of slot
	// d: set at sickness onset, zeroed when it clears.
	transRate []float64
}

// NewInjector builds an injector for an array of ndisks drives.
func NewInjector(eng *sim.Engine, cfg Config, ndisks int) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ndisks <= 0 {
		return nil, fmt.Errorf("fault: array has no disks")
	}
	for _, f := range cfg.DiskFails {
		if f.Disk >= ndisks {
			return nil, fmt.Errorf("fault: disk %d out of range [0,%d)", f.Disk, ndisks)
		}
	}
	for _, s := range cfg.SickDisks {
		if s.Disk >= ndisks {
			return nil, fmt.Errorf("fault: sick disk %d out of range [0,%d)", s.Disk, ndisks)
		}
	}
	// Stream order matters: life and media must split first so adding
	// sick-disk support leaves existing fault campaigns bit-identical.
	root := rng.New(cfg.Seed ^ 0xfa17fa17fa17fa17)
	return &Injector{
		eng:       eng,
		cfg:       cfg,
		ndisks:    ndisks,
		life:      root.Split(),
		media:     root.Split(),
		trans:     root.Split(),
		transRate: make([]float64, ndisks),
	}, nil
}

// Arm schedules every configured fault against h. Call once, before the
// simulation starts (deterministic events with At earlier than the
// current engine time would panic the scheduler).
func (in *Injector) Arm(h Handler) {
	if in.h != nil {
		panic("fault: injector armed twice")
	}
	in.h = h
	for _, f := range in.cfg.DiskFails {
		f := f
		in.eng.At(f.At, func() { h.FailDisk(f.Disk) })
	}
	if in.cfg.CacheFailAt > 0 {
		in.eng.At(in.cfg.CacheFailAt, func() { h.FailCache() })
	}
	if in.cfg.MTTF > 0 {
		for d := 0; d < in.ndisks; d++ {
			in.armLifetime(d)
		}
	}
	if sh, ok := h.(SickHandler); ok {
		for _, s := range in.cfg.SickDisks {
			in.armSickness(sh, s)
		}
	}
}

// armSickness schedules one sick-disk episode: onset, optional clear,
// and the periodic hang loop in between.
func (in *Injector) armSickness(sh SickHandler, s SickDisk) {
	in.eng.At(s.At, func() {
		in.transRate[s.Disk] = s.TransientRate
		sh.SickDisk(s)
		if s.HangEvery > 0 {
			in.armHang(sh, s, s.At+s.HangEvery)
		}
	})
	if s.Until > 0 {
		in.eng.At(s.Until, func() {
			in.transRate[s.Disk] = 0
			sh.SickClear(s.Disk)
		})
	}
}

// armHang runs the periodic freeze loop of one sick episode: at each
// period boundary still inside the episode, hang the drive for HangFor.
func (in *Injector) armHang(sh SickHandler, s SickDisk, at sim.Time) {
	if s.Until > 0 && at >= s.Until {
		return
	}
	in.eng.At(at, func() {
		until := at + s.HangFor
		if s.Until > 0 && until > s.Until {
			until = s.Until
		}
		if until > at {
			sh.HangDisk(s.Disk, until)
		}
		in.armHang(sh, s, at+s.HangEvery)
	})
}

// armLifetime draws an exponential lifetime for the drive in slot d and
// schedules its death.
func (in *Injector) armLifetime(d int) {
	life := sim.Time(in.life.Exp(float64(in.cfg.MTTF)))
	if life < 1 {
		life = 1
	}
	in.eng.After(life, func() { in.h.FailDisk(d) })
}

// DiskReplaced tells the injector a fresh drive (hot spare) now occupies
// slot d; under a stochastic MTTF process the replacement gets its own
// lifetime.
func (in *Injector) DiskReplaced(d int) {
	if in.cfg.MTTF > 0 && in.h != nil {
		in.armLifetime(d)
	}
}

// SectorFaulty samples whether a media read pass of n blocks surfaces a
// latent sector error (per-block rate compounded over the run).
func (in *Injector) SectorFaulty(n int) bool {
	p := in.cfg.SectorErrorRate
	if p <= 0 || n <= 0 {
		return false
	}
	pn := p
	if n > 1 {
		pn = 1 - math.Pow(1-p, float64(n))
	}
	return in.media.Float64() < pn
}

// TransientFaulty samples whether a media read pass of n blocks on drive
// d fails transiently — drive d must currently be sick with a positive
// transient rate, otherwise the answer is false without consuming any
// randomness (so healthy runs stay bit-identical).
func (in *Injector) TransientFaulty(d, n int) bool {
	if d < 0 || d >= len(in.transRate) || n <= 0 {
		return false
	}
	p := in.transRate[d]
	if p <= 0 {
		return false
	}
	pn := p
	if n > 1 {
		pn = 1 - math.Pow(1-p, float64(n))
	}
	return in.trans.Float64() < pn
}
