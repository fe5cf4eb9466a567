package obs

import (
	"math"
	"testing"

	"raidsim/internal/rng"
)

// TestHistBinMatchesFormula checks the table lookup against the defining
// formula at every bin edge ±4 ulps and over 1M log-uniform samples
// spanning the whole histogram range and beyond.
func TestHistBinMatchesFormula(t *testing.T) {
	check := func(x float64) {
		t.Helper()
		if got, want := histBin(x), histBinLog(x); got != want {
			t.Fatalf("histBin(%v [bits %#x]) = %d, formula says %d", x, math.Float64bits(x), got, want)
		}
	}
	for _, x := range []float64{-1, 0, math.SmallestNonzeroFloat64, histLo, 1, 1e300} {
		check(x)
	}
	edges := append([]float64{histLo}, histThresh[1:]...)
	for _, e := range edges {
		bits := math.Float64bits(e)
		for d := uint64(0); d <= 4; d++ {
			check(math.Float64frombits(bits + d))
			check(math.Float64frombits(bits - d))
		}
	}
	for b := 1; b < histBins; b++ {
		if histBinLog(histThresh[b]) != b || histBinLog(math.Nextafter(histThresh[b], 0)) != b-1 {
			t.Fatalf("histThresh[%d] = %v is not the first float of bin %d", b, histThresh[b], b)
		}
	}
	src := rng.New(11)
	lo, hi := math.Log(histLo/100), math.Log(histThresh[histBins-1]*100)
	for i := 0; i < 1_000_000; i++ {
		check(math.Exp(lo + (hi-lo)*src.Float64()))
	}
}

// FuzzHistBin compares the lookup with the formula on arbitrary inputs
// inside the formula's domain.
func FuzzHistBin(f *testing.F) {
	for _, x := range []float64{0, -3, histLo, 0.5, 3.7, 1e4, 1e9, histThresh[7], histThresh[histBins-1]} {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x float64) {
		if math.IsNaN(x) || math.IsInf(x/histLo, 0) {
			return
		}
		if got, want := histBin(x), histBinLog(x); got != want {
			t.Fatalf("histBin(%v) = %d, formula says %d", x, got, want)
		}
	})
}

// TestTrackedQuantileMatchesHistogram feeds seeded streams to a
// TrackedQuantile and a Histogram side by side and compares the tracked
// value with Histogram.Quantile bit for bit after every sample, from the
// first one on. The streams cover short runs, runs of equal samples,
// samples at or below histLo, samples beyond the last bin, and modes far
// enough apart that the cursor crosses long runs of empty bins.
func TestTrackedQuantileMatchesHistogram(t *testing.T) {
	beyond := histThresh[histBins-1] * 10
	streams := map[string]func(src *rng.Source, i int) float64{
		"exp": func(src *rng.Source, _ int) float64 { return src.Exp(8) },
		"equal-runs": func(src *rng.Source, i int) float64 {
			return float64(1 + (i/50)%4) // 50 equal samples, then the next value
		},
		"low-and-beyond": func(src *rng.Source, _ int) float64 {
			switch src.Intn(6) {
			case 0:
				return 0
			case 1:
				return -src.Float64()
			case 2:
				return histLo
			case 3:
				return beyond * (1 + src.Float64())
			}
			return src.Exp(2)
		},
		"bimodal": func(src *rng.Source, _ int) float64 {
			if src.Bool(0.9) {
				return 0.01 * (1 + src.Float64())
			}
			return 5000 * (1 + src.Float64())
		},
		"drift": func(src *rng.Source, i int) float64 {
			// Falling then rising: the cursor walks both ways.
			scale := math.Abs(float64(i%4000-2000)) + 1
			return scale * src.Float64()
		},
	}
	for name, gen := range streams {
		for _, n := range []int{20, 12000} {
			for _, q := range []float64{0.5, 0.95, 0.99} {
				src := rng.New(uint64(len(name)*1000 + n))
				tq := NewTrackedQuantile(q)
				var h Histogram
				if got := tq.Value(); got != 0 {
					t.Fatalf("%s q=%g: empty value %v, want 0", name, q, got)
				}
				for i := 0; i < n; i++ {
					x := gen(src, i)
					tq.Add(x)
					h.Add(x)
					got, want := tq.Value(), h.Quantile(q)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s n=%d q=%g: after sample %d (%v) tracked %v, Quantile %v", name, n, q, i+1, x, got, want)
					}
					if tq.N() != h.N() {
						t.Fatalf("%s: N %d, want %d", name, tq.N(), h.N())
					}
				}
			}
		}
	}
}

var histBinSink int

func BenchmarkHistBin(b *testing.B) {
	xs := make([]float64, 1024)
	src := rng.New(3)
	for i := range xs {
		xs[i] = src.Exp(13)
	}
	b.ResetTimer()
	s := 0
	for i := 0; i < b.N; i++ {
		s += histBin(xs[i&1023])
	}
	histBinSink = s
}
