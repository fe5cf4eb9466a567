package stats

import (
	"math"
	"testing"
	"testing/quick"

	"raidsim/internal/logbin"
	"raidsim/internal/rng"
)

func naiveMeanVar(xs []float64) (mean, variance float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		variance += (x - mean) * (x - mean)
	}
	if len(xs) > 1 {
		variance /= float64(len(xs) - 1)
	} else {
		variance = 0
	}
	return
}

func TestSummaryAgainstNaive(t *testing.T) {
	src := rng.New(1)
	xs := make([]float64, 5000)
	var s Summary
	for i := range xs {
		xs[i] = src.Exp(13) + 0.5
		s.Add(xs[i])
	}
	wantMean, wantVar := naiveMeanVar(xs)
	if math.Abs(s.Mean()-wantMean) > 1e-9 {
		t.Fatalf("mean %f, want %f", s.Mean(), wantMean)
	}
	if math.Abs(s.Var()-wantVar)/wantVar > 1e-9 {
		t.Fatalf("var %f, want %f", s.Var(), wantVar)
	}
	if s.N() != 5000 {
		t.Fatalf("n = %d", s.N())
	}
	if s.Min() <= 0.5-1e-12 || s.Max() <= s.Min() {
		t.Fatalf("min/max wrong: %f/%f", s.Min(), s.Max())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Var() != 0 || s.Std() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty summary should read as zeros")
	}
	if s.Quantile(0.5) != 0 {
		t.Fatal("empty quantile should be 0")
	}
}

func TestSummaryMergeEqualsWhole(t *testing.T) {
	f := func(seed uint64, splitRaw uint8) bool {
		src := rng.New(seed)
		n := 200
		split := int(splitRaw) % n
		var whole, a, b Summary
		for i := 0; i < n; i++ {
			x := src.Exp(7)
			whole.Add(x)
			if i < split {
				a.Add(x)
			} else {
				b.Add(x)
			}
		}
		a.Merge(&b)
		return a.N() == whole.N() &&
			math.Abs(a.Mean()-whole.Mean()) < 1e-9 &&
			math.Abs(a.Var()-whole.Var()) < 1e-6 &&
			a.Min() == whole.Min() && a.Max() == whole.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantileApproximation(t *testing.T) {
	src := rng.New(9)
	var s Summary
	for i := 0; i < 100000; i++ {
		s.Add(src.Exp(20)) // exponential: p50 = 20*ln2 = 13.86, p95 = 59.9
	}
	if q := s.Quantile(0.5); q < 12 || q > 16 {
		t.Fatalf("p50 = %f, want ~13.9", q)
	}
	if q := s.Quantile(0.95); q < 53 || q > 67 {
		t.Fatalf("p95 = %f, want ~59.9", q)
	}
	if s.Quantile(0) != s.Min() || s.Quantile(1) != s.Max() {
		t.Fatal("extreme quantiles should clamp to min/max")
	}
	// Quantiles are monotone in q.
	prev := 0.0
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		v := s.Quantile(q)
		if v < prev {
			t.Fatalf("quantiles not monotone at %f", q)
		}
		prev = v
	}
}

func TestUtilization(t *testing.T) {
	var u Utilization
	u.SetBusy(0)
	u.SetIdle(30)
	u.SetBusy(50)
	u.SetIdle(60)
	if got := u.BusyTime(100); got != 40 {
		t.Fatalf("busy time = %d, want 40", got)
	}
	if got := u.Value(100); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("utilization = %f, want 0.4", got)
	}
	// Still-busy interval counts up to the query time.
	u.SetBusy(100)
	if got := u.BusyTime(110); got != 50 {
		t.Fatalf("busy time while busy = %d, want 50", got)
	}
	// Double SetBusy is a no-op.
	u.SetBusy(105)
	if got := u.BusyTime(110); got != 50 {
		t.Fatalf("double SetBusy changed accounting: %d", got)
	}
}

func TestUtilizationStartsAtFirstObservation(t *testing.T) {
	var u Utilization
	u.SetBusy(1000)
	u.SetIdle(1500)
	if got := u.Value(2000); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("utilization = %f, want 0.5 over [1000,2000]", got)
	}
}

// TestUtilizationIdleObservationAtZero: an observation at t=0 must count
// as the first observation. The old zero-value sentinel (last == 0 &&
// total == 0 && !busy) could not tell "never observed" from "observed
// idle at t=0", so a later SetBusy silently moved started forward and
// inflated Value.
func TestUtilizationIdleObservationAtZero(t *testing.T) {
	var u Utilization
	u.SetIdle(0) // idle server observed at the start of the run
	u.SetBusy(100)
	u.SetIdle(200)
	if got := u.BusyTime(200); got != 100 {
		t.Fatalf("busy time = %d, want 100", got)
	}
	// Observed since t=0: busy 100 of 200, not 100 of 100.
	if got := u.Value(200); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("utilization = %f, want 0.5 over [0,200]", got)
	}
}

// TestUtilizationZeroLengthBusyAtZero: SetBusy(0) immediately followed by
// SetIdle(0) leaves every field zero; the next observation must not be
// mistaken for the first.
func TestUtilizationZeroLengthBusyAtZero(t *testing.T) {
	var u Utilization
	u.SetBusy(0)
	u.SetIdle(0)
	u.SetBusy(10)
	u.SetIdle(20)
	if got := u.Value(20); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("utilization = %f, want 0.5 over [0,20]", got)
	}
}

// TestUtilizationBusyFirstAtZero: the common order (busy first) starting
// at t=0 must behave identically before and after the sentinel fix.
func TestUtilizationBusyFirstAtZero(t *testing.T) {
	var u Utilization
	u.SetBusy(0)
	u.SetIdle(50)
	if got := u.Value(100); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("utilization = %f, want 0.5 over [0,100]", got)
	}
}

// TestQuantileMonotoneAndBounded: for arbitrary sample sets, Quantile
// must be non-decreasing in q and always land inside [Min, Max].
func TestQuantileMonotoneAndBounded(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		var s Summary
		for _, v := range raw {
			// Spread samples across the histogram's geometric range,
			// including the sub-histLo underflow bin.
			s.Add(float64(v) / 1e4)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.01 {
			v := s.Quantile(q)
			if v < prev {
				return false
			}
			if v < s.Min() || v > s.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuantileDegenerateBounds: a min > max pair (summaries assembled
// from partial state) must not break the range clamp or monotonicity —
// Quantile treats the observed range as [max, min].
func TestQuantileDegenerateBounds(t *testing.T) {
	var s Summary
	s.Add(4.0)
	lo, hi := 3.0, 5.0
	s.min, s.max = hi, lo // inverted
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.05 {
		v := s.Quantile(q)
		if v < lo || v > hi {
			t.Fatalf("q=%.2f: %f outside [%f,%f]", q, v, lo, hi)
		}
		if v < prev {
			t.Fatalf("q=%.2f: quantile decreased (%f after %f)", q, v, prev)
		}
		prev = v
	}
}

// binOfLog is the histogram's defining bin formula, the oracle the
// lookup in binTable must reproduce bit for bit. It is defined where
// x/histLo is finite; beyond that (x above ~1.8e305) the formula
// overflows and the lookup returns the last bin.
func binOfLog(x float64) int {
	if x <= histLo {
		return 0
	}
	return min(int(math.Log(x/histLo)/math.Log(histStep)), logbin.Bins-1)
}

// binEdge is the first float that binOfLog puts in bin b, found by
// bisecting the bits of positive floats, which order as the floats do.
func binEdge(b int) float64 {
	l, h := math.Float64bits(histLo), math.Float64bits(histLo*math.Pow(histStep, logbin.Bins+1))
	for h-l > 1 {
		mid := l + (h-l)/2
		if binOfLog(math.Float64frombits(mid)) >= b {
			h = mid
		} else {
			l = mid
		}
	}
	return math.Float64frombits(h)
}

// TestBinOfMatchesFormula checks Summary's bin lookup against its
// defining formula at every bin edge ±4 ulps and over 10M log-uniform
// samples spanning the whole histogram range and beyond. The logbin
// tests hold the lookup to the formula for tables built alike; this one
// holds the table Summary is built with.
func TestBinOfMatchesFormula(t *testing.T) {
	check := func(x float64) {
		t.Helper()
		if got, want := binTable.Bin(x), binOfLog(x); got != want {
			t.Fatalf("Bin(%v [bits %#x]) = %d, formula says %d", x, math.Float64bits(x), got, want)
		}
	}
	for _, x := range []float64{-1, 0, math.SmallestNonzeroFloat64, histLo, 1, 1e300} {
		check(x)
	}
	edges := []float64{histLo}
	for b := 1; b < logbin.Bins; b++ {
		edges = append(edges, binEdge(b))
	}
	for b, e := range edges {
		bits := math.Float64bits(e)
		for d := uint64(0); d <= 4; d++ {
			check(math.Float64frombits(bits + d))
			check(math.Float64frombits(bits - d))
		}
		if b > 0 && (binTable.Bin(e) != b || binTable.Bin(math.Nextafter(e, 0)) != b-1) {
			t.Fatalf("the first float of bin %d, %v, is not where the lookup starts bin %d", b, e, b)
		}
	}
	src := rng.New(11)
	lo, hi := math.Log(histLo/100), math.Log(edges[logbin.Bins-1]*100)
	for i := 0; i < 10_000_000; i++ {
		check(math.Exp(lo + (hi-lo)*src.Float64()))
	}
}

// FuzzBinOf compares Summary's bin lookup with the formula on arbitrary
// inputs inside the formula's domain.
func FuzzBinOf(f *testing.F) {
	for _, x := range []float64{0, histLo, 0.5, 3.7, 1e4, binEdge(7), binEdge(logbin.Bins - 1)} {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x float64) {
		if math.IsNaN(x) || math.IsInf(x/histLo, 0) {
			return
		}
		if got, want := binTable.Bin(x), binOfLog(x); got != want {
			t.Fatalf("Bin(%v) = %d, formula says %d", x, got, want)
		}
	})
}
