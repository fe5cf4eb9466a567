package rng

import (
	"math"
	"sort"
)

// Zipf samples ranks 0..n-1 with probability proportional to
// 1/(rank+1)^theta. theta = 0 is uniform; larger theta is more skewed.
// The OLTP literature typically uses theta in [0.5, 1.0] for hot-spot
// access patterns.
//
// Sampling uses a precomputed cumulative table with binary search, which
// is exact and fast for the table sizes used here (up to a few thousand
// extents/disks).
type Zipf struct {
	cdf []float64
}

// NewZipf builds a Zipf sampler over n ranks with exponent theta.
// It panics if n <= 0 or theta < 0.
func NewZipf(n int, theta float64) *Zipf {
	if n <= 0 {
		panic("rng: Zipf with non-positive n")
	}
	if theta < 0 {
		panic("rng: Zipf with negative theta")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1.0 / math.Pow(float64(i+1), theta)
		cdf[i] = sum
	}
	inv := 1.0 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	cdf[n-1] = 1.0 // exact upper bound despite rounding
	return &Zipf{cdf: cdf}
}

// n returns the number of ranks.
func (z *Zipf) n() int { return len(z.cdf) }

// Sample draws a rank in [0, n). Rank 0 is the most probable.
func (z *Zipf) Sample(src *Source) int {
	u := src.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}

// prob returns the probability of the given rank. Out-of-range ranks
// (negative or >= n()) have probability 0 — callers probing "how hot
// would rank r be" must not have to bounds-check first.
func (z *Zipf) prob(rank int) float64 {
	if rank < 0 || rank >= len(z.cdf) {
		return 0
	}
	if rank == 0 {
		return z.cdf[0]
	}
	return z.cdf[rank] - z.cdf[rank-1]
}
