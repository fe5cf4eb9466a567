// Package reliability provides the analytic availability models behind
// the paper's motivation: the mean time to data loss (MTTDL) of
// non-redundant disk farms, mirrored pairs, and N+1 parity arrays, using
// the standard independent-exponential-failure Markov models from the
// RAID literature. It reproduces the introduction's footnote: a 150-disk
// farm of 100,000-hour-MTTF drives loses data in under a month on
// average.
package reliability

import (
	"fmt"
	"math"
)

// Params describes the drive population.
type Params struct {
	DiskMTTFHours float64 // mean time to failure of one drive
	MTTRHours     float64 // mean time to repair/replace one drive
}

// validate reports parameter errors.
func (p Params) validate() error {
	if p.DiskMTTFHours <= 0 {
		return fmt.Errorf("reliability: MTTF must be positive")
	}
	if p.MTTRHours < 0 {
		return fmt.Errorf("reliability: MTTR must be non-negative")
	}
	return nil
}

// FarmMTTDLHours returns the mean time until the first failure in a farm
// of n independent drives with no redundancy — any single failure loses
// data.
func FarmMTTDLHours(p Params, n int) float64 {
	if n <= 0 {
		panic("reliability: need at least one disk")
	}
	return p.DiskMTTFHours / float64(n)
}

// MirrorPairMTTDLHours returns the MTTDL of one mirrored pair: data is
// lost when the second drive fails while the first is being repaired.
// Standard result: MTTF^2 / (2 * MTTR) for MTTR << MTTF.
func MirrorPairMTTDLHours(p Params) float64 {
	if p.MTTRHours == 0 {
		return math.Inf(1)
	}
	m := p.DiskMTTFHours
	return m * m / (2 * p.MTTRHours)
}

// MirrorPairMTTDLHoursExact returns the exact Markov-chain MTTDL of one
// mirrored pair with exponential failures and exponential repairs:
// (3λ+µ)/(2λ²) = 1.5·MTTF + MTTF²/(2·MTTR). The approximation above drops
// the 1.5·MTTF term, negligible when MTTR << MTTF; the fault-injection
// campaign (package fault) converges to this exact value.
func MirrorPairMTTDLHoursExact(p Params) float64 {
	if p.MTTRHours == 0 {
		return math.Inf(1)
	}
	m := p.DiskMTTFHours
	return 1.5*m + m*m/(2*p.MTTRHours)
}

// MirrorFarmMTTDLHours returns the MTTDL of n independent mirrored pairs
// (2n drives).
func MirrorFarmMTTDLHours(p Params, pairs int) float64 {
	if pairs <= 0 {
		panic("reliability: need at least one pair")
	}
	return MirrorPairMTTDLHours(p) / float64(pairs)
}

// ArrayMTTDLHours returns the MTTDL of one N+1 parity array (RAID4/5 or
// parity striping group of disks): data is lost when a second drive of
// the same array fails during the first drive's repair window.
// Standard result: MTTF^2 / (G * (G-1) * MTTR) with G = N+1 drives.
func ArrayMTTDLHours(p Params, n int) float64 {
	if n < 2 {
		panic("reliability: parity array needs N >= 2")
	}
	if p.MTTRHours == 0 {
		return math.Inf(1)
	}
	g := float64(n + 1)
	m := p.DiskMTTFHours
	return m * m / (g * (g - 1) * p.MTTRHours)
}

// ArrayMTTDLHoursExact returns the exact Markov-chain MTTDL of one N+1
// parity array (G = N+1 drives, exponential repairs):
// ((2G-1)λ+µ)/(G(G-1)λ²) = (2G-1)·MTTF/(G(G-1)) + MTTF²/(G(G-1)·MTTR).
func ArrayMTTDLHoursExact(p Params, n int) float64 {
	if n < 2 {
		panic("reliability: parity array needs N >= 2")
	}
	if p.MTTRHours == 0 {
		return math.Inf(1)
	}
	g := float64(n + 1)
	m := p.DiskMTTFHours
	return (2*g-1)*m/(g*(g-1)) + m*m/(g*(g-1)*p.MTTRHours)
}

// ArrayFarmMTTDLHours returns the MTTDL of a system of several N+1
// arrays.
func ArrayFarmMTTDLHours(p Params, n, arrays int) float64 {
	if arrays <= 0 {
		panic("reliability: need at least one array")
	}
	return ArrayMTTDLHours(p, n) / float64(arrays)
}

// DataLossProbability returns 1 - exp(-t/MTTDL): the probability of at
// least one data-loss event within t hours, assuming exponential
// inter-loss times.
func DataLossProbability(mttdlHours, tHours float64) float64 {
	if math.IsInf(mttdlHours, 1) {
		return 0
	}
	return 1 - math.Exp(-tHours/mttdlHours)
}

// HoursToDays converts hours to days.
func HoursToDays(h float64) float64 { return h / 24 }
