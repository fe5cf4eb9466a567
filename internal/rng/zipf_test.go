package rng

import (
	"math"
	"sort"
	"testing"
)

// zipfProbes returns the draws where a guide-table start could go wrong:
// every cdf value, its float neighbours on both sides, and 0.
func zipfProbes(z *Zipf) []float64 {
	us := []float64{0}
	for _, c := range z.cdf {
		us = append(us, math.Nextafter(c, 0), c, math.Nextafter(c, 2))
	}
	return us
}

// checkZipfSearch fails t if the guide-table search disagrees with a
// binary search of the same table at u.
func checkZipfSearch(t *testing.T, z *Zipf, u float64) {
	t.Helper()
	if got, want := z.search(u), sort.SearchFloat64s(z.cdf, u); got != want {
		t.Fatalf("n=%d u=%v: guide table gives rank %d, binary search %d", z.n(), u, got, want)
	}
}

// TestZipfMatchesSearch checks the guide table against
// sort.SearchFloat64s on every (ranks, theta) pair the built-in
// workloads draw from — the workload profiles (Trace1Profile,
// Trace2Profile, DSSProfile) and the diurnal spec's clients, with the
// spec's default of 64 extents per disk — plus the edge cases of one
// rank and of theta 0. Every cdf value and its neighbours is probed,
// then a stream of ordinary draws.
func TestZipfMatchesSearch(t *testing.T) {
	pairs := []struct {
		n     int
		theta float64
	}{
		{130, 0.45}, {64, 0.25}, // trace1: disks, extents
		{10, 1.60}, {64, 0.30}, // trace2; diurnal oltp extents
		{10, 0.30}, {32, 0.30}, // dss; diurnal scan disks
		{10, 1.20},       // diurnal oltp disks
		{10, 0}, {64, 0}, // diurnal backup disks; scan and backup extents
		{1, 0}, {1, 0.8}, {1, 3}, // one rank
		{7, 0}, {1000, 0}, {4096, 0}, // uniform
		{3, 40}, {5000, 0.99},
	}
	for _, p := range pairs {
		z := NewZipf(p.n, p.theta)
		for _, u := range zipfProbes(z) {
			if u <= 1 {
				checkZipfSearch(t, z, u)
			}
		}
		src := New(uint64(p.n))
		for i := 0; i < 20000; i++ {
			checkZipfSearch(t, z, src.Float64())
		}
		checkZipfSearch(t, z, math.Nextafter(1, 0)) // Float64's largest draw
	}
}

// FuzzZipfMatchesSearch: for any table shape and any draw in [0, 1],
// the guide-table search returns the index sort.SearchFloat64s returns.
func FuzzZipfMatchesSearch(f *testing.F) {
	for _, p := range []struct {
		n     uint16
		theta float64
	}{{130, 0.45}, {64, 0.25}, {10, 1.6}, {1, 0}, {10, 0}} {
		for _, u := range zipfProbes(NewZipf(int(p.n), p.theta)) {
			if u <= 1 {
				f.Add(p.n, p.theta, u)
			}
		}
	}
	f.Fuzz(func(t *testing.T, n uint16, theta, u float64) {
		if math.IsNaN(theta) || math.IsNaN(u) || math.IsInf(u, 0) {
			return
		}
		if u < 0 || u > 1 {
			u = math.Abs(math.Mod(u, 1))
		}
		z := NewZipf(1+int(n%8192), math.Abs(theta))
		checkZipfSearch(t, z, u)
		// A random draw seldom lands on a bucket edge, so also probe the
		// cdf values that bracket u and their neighbours.
		j := sort.SearchFloat64s(z.cdf, u)
		for _, i := range []int{j - 1, j} {
			if i >= 0 && i < z.n() {
				c := z.cdf[i]
				for _, v := range []float64{math.Nextafter(c, 0), c, math.Nextafter(c, 2)} {
					if v <= 1 {
						checkZipfSearch(t, z, v)
					}
				}
			}
		}
	})
}
