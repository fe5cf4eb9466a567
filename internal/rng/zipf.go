package rng

import "math"

// Zipf samples ranks 0..n-1 with probability proportional to
// 1/(rank+1)^theta. theta = 0 is uniform; larger theta is more skewed.
// The OLTP literature typically uses theta in [0.5, 1.0] for hot-spot
// access patterns.
//
// Sampling inverts a precomputed cumulative table through a guide table
// (Chen & Asau, 1974): guide[k] is the first rank whose bucket
// int(cdf[i]*n) reaches k, so a draw u starts at guide[int(u*n)] and
// scans forward to the first cdf[i] >= u. Because float multiplication
// is monotone, that start never passes the answer, and the result is
// exactly sort.SearchFloat64s(cdf, u) — the same ranks for the same
// draws — at an expected O(1) probes instead of log2(n).
type Zipf struct {
	cdf   []float64
	guide []int32 // n+1 bucket starts; guide[k] = min{i : int(cdf[i]*n) >= k}
}

// NewZipf builds a Zipf sampler over n ranks with exponent theta.
// It panics if n <= 0, n > math.MaxInt32 or theta < 0.
func NewZipf(n int, theta float64) *Zipf {
	if n <= 0 || n > math.MaxInt32 {
		panic("rng: Zipf rank count outside [1, MaxInt32]")
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
	// The bucket expression must be the one search uses, int(x*m), so
	// rounding agrees on both sides. cdf[n-1]*m == m fills the last
	// bucket.
	m := float64(n)
	guide := make([]int32, n+1)
	k := 0
	for i, c := range cdf {
		for top := min(int(c*m), n); k <= top; k++ {
			guide[k] = int32(i)
		}
	}
	return &Zipf{cdf: cdf, guide: guide}
}

// n returns the number of ranks.
func (z *Zipf) n() int { return len(z.cdf) }

// Sample draws a rank in [0, n). Rank 0 is the most probable.
func (z *Zipf) Sample(src *Source) int {
	return z.search(src.Float64())
}

// search returns the first rank i with cdf[i] >= u, for u in [0, 1].
func (z *Zipf) search(u float64) int {
	i := int(z.guide[int(u*float64(len(z.cdf)))])
	for z.cdf[i] < u {
		i++
	}
	return i
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
