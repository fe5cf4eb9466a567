package obs

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"raidsim/internal/logbin"
	"raidsim/internal/rng"
)

// lastEdge is about where the last bin starts: samples past it all land
// there.
var lastEdge = histLo * math.Pow(histGrowth, logbin.Bins-1)

// histBinLog is the histogram's defining bin formula, the oracle the
// lookup in histTable must reproduce bit for bit. It is defined where
// x/histLo is finite; beyond that the formula overflows and the lookup
// returns the last bin.
func histBinLog(x float64) int {
	if x <= histLo {
		return 0
	}
	return min(int(math.Log(x/histLo)/math.Log(histGrowth)), logbin.Bins-1)
}

// histEdge is the first float that histBinLog puts in bin b, found by
// bisecting the bits of positive floats, which order as the floats do.
func histEdge(b int) float64 {
	l, h := math.Float64bits(histLo), math.Float64bits(histLo*math.Pow(histGrowth, logbin.Bins+1))
	for h-l > 1 {
		mid := l + (h-l)/2
		if histBinLog(math.Float64frombits(mid)) >= b {
			h = mid
		} else {
			l = mid
		}
	}
	return math.Float64frombits(h)
}

// TestHistBinMatchesFormula checks Histogram's bin lookup against its
// defining formula at every bin edge ±4 ulps and over 1M log-uniform
// samples spanning the whole histogram range and beyond. The logbin
// tests hold the lookup to the formula for tables built alike; this one
// holds the table Histogram is built with.
func TestHistBinMatchesFormula(t *testing.T) {
	check := func(x float64) {
		t.Helper()
		if got, want := histTable.Bin(x), histBinLog(x); got != want {
			t.Fatalf("Bin(%v [bits %#x]) = %d, formula says %d", x, math.Float64bits(x), got, want)
		}
	}
	for _, x := range []float64{-1, 0, math.SmallestNonzeroFloat64, histLo, 1, 1e300} {
		check(x)
	}
	edges := []float64{histLo}
	for b := 1; b < logbin.Bins; b++ {
		edges = append(edges, histEdge(b))
	}
	for b, e := range edges {
		bits := math.Float64bits(e)
		for d := uint64(0); d <= 4; d++ {
			check(math.Float64frombits(bits + d))
			check(math.Float64frombits(bits - d))
		}
		if b > 0 && (histTable.Bin(e) != b || histTable.Bin(math.Nextafter(e, 0)) != b-1) {
			t.Fatalf("the first float of bin %d, %v, is not where the lookup starts bin %d", b, e, b)
		}
	}
	src := rng.New(11)
	lo, hi := math.Log(histLo/100), math.Log(edges[logbin.Bins-1]*100)
	for i := 0; i < 1_000_000; i++ {
		check(math.Exp(lo + (hi-lo)*src.Float64()))
	}
}

// FuzzHistBin compares Histogram's bin lookup with the formula on
// arbitrary inputs inside the formula's domain.
func FuzzHistBin(f *testing.F) {
	for _, x := range []float64{0, -3, histLo, 0.5, 3.7, 1e4, 1e9, histEdge(7), histEdge(logbin.Bins - 1)} {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x float64) {
		if math.IsNaN(x) || math.IsInf(x/histLo, 0) {
			return
		}
		if got, want := histTable.Bin(x), histBinLog(x); got != want {
			t.Fatalf("Bin(%v) = %d, formula says %d", x, got, want)
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
	beyond := lastEdge * 10
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

// denseHist is the reference the differential tests hold Histogram to:
// every one of the 256 bins in a fixed array. Binning and the counts
// themselves are held to their own references in logbin; this one checks
// what Histogram adds.
type denseHist struct {
	counts   [logbin.Bins]int64
	n        int64
	sum, max float64
}

func (d *denseHist) add(ms float64) {
	d.counts[histTable.Bin(ms)]++
	d.n++
	d.sum += ms
	if ms > d.max {
		d.max = ms
	}
}

func (d *denseHist) merge(o *denseHist) {
	for i, c := range o.counts {
		d.counts[i] += c
	}
	d.n += o.n
	d.sum += o.sum
	if o.max > d.max {
		d.max = o.max
	}
}

func (d *denseHist) mean() float64 {
	if d.n == 0 {
		return 0
	}
	return d.sum / float64(d.n)
}

func (d *denseHist) quantile(q float64) float64 {
	if d.n == 0 {
		return 0
	}
	target := max(int64(math.Ceil(q*float64(d.n))), 1)
	if target >= d.n {
		return d.max
	}
	var cum int64
	for b, c := range d.counts {
		cum += c
		if cum >= target {
			return min(histLo*math.Pow(histGrowth, float64(b)+0.5), d.max)
		}
	}
	return d.max
}

// pairHist is a Histogram and its dense reference, fed the same samples.
type pairHist struct {
	h Histogram
	d denseHist
}

func (p *pairHist) add(ms float64) {
	p.h.Add(ms)
	p.d.add(ms)
}

func (p *pairHist) merge(o *pairHist) {
	p.h.Merge(&o.h)
	p.d.merge(&o.d)
}

// check compares the histogram with its reference bit for bit: N, Mean,
// Max, four quantiles, and the count of every bin.
func (p *pairHist) check(t testing.TB, what string) {
	t.Helper()
	h, d := &p.h, &p.d
	if h.N() != d.n {
		t.Fatalf("%s: N %d, dense %d", what, h.N(), d.n)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(h.Mean(), d.mean()) || !same(h.Max(), d.max) {
		t.Fatalf("%s: mean/max %v/%v, dense %v/%v", what, h.Mean(), h.Max(), d.mean(), d.max)
	}
	for _, q := range []float64{0.5, 0.95, 0.99, 1} {
		if got, want := h.Quantile(q), d.quantile(q); !same(got, want) {
			t.Fatalf("%s: Quantile(%g) %v, dense %v", what, q, got, want)
		}
	}
	if lo, c := h.c.Occupied(); lo < 0 || lo+len(c) > logbin.Bins {
		t.Fatalf("%s: bins [%d, %d) outside [0, %d)", what, lo, lo+len(c), logbin.Bins)
	}
	for b, c := range d.counts {
		if got := h.c.Count(b); got != c {
			t.Fatalf("%s: bin %d holds %d, dense %d", what, b, got, c)
		}
	}
}

// TestHistogramMatchesDense holds the offset-slice Histogram to the
// dense reference after every sample of seeded streams that reach below
// histLo and past the last bin edge, and after merges of disjoint,
// overlapping, nested and empty histograms and of a histogram into
// itself.
func TestHistogramMatchesDense(t *testing.T) {
	top := lastEdge
	src := rng.New(29)
	// logUniform draws from [lo, hi) ms, uniform in log space.
	logUniform := func(lo, hi float64) float64 {
		return lo * math.Exp(math.Log(hi/lo)*src.Float64())
	}
	streams := []struct {
		name string
		gen  func() float64
	}{
		{"exp", func() float64 { return src.Exp(12) }},
		{"wide", func() float64 { return logUniform(histLo/10, top*10) }},
		{"edges", func() float64 {
			switch src.Intn(8) {
			case 0:
				return 0
			case 1:
				return -src.Float64()
			case 2:
				return histLo
			case 3:
				return top
			case 4:
				return top * (1 + 9*src.Float64())
			case 5:
				return histLo * math.Pow(histGrowth, float64(1+src.Intn(logbin.Bins-1)))
			}
			return src.Exp(3)
		}},
	}
	for _, s := range streams {
		var p pairHist
		p.check(t, s.name+" empty")
		for i := 0; i < 3000; i++ {
			p.add(s.gen())
			p.check(t, fmt.Sprintf("%s after %d samples", s.name, i+1))
		}
	}

	fill := func(n int, lo, hi float64) *pairHist {
		p := &pairHist{}
		for i := 0; i < n; i++ {
			p.add(logUniform(lo, hi))
		}
		return p
	}
	merges := []struct {
		name string
		a, b func() *pairHist
	}{
		{"disjoint low+high", func() *pairHist { return fill(300, 0.01, 0.05) }, func() *pairHist { return fill(300, 500, 2000) }},
		{"disjoint high+low", func() *pairHist { return fill(300, 500, 2000) }, func() *pairHist { return fill(300, 0.01, 0.05) }},
		{"overlapping", func() *pairHist { return fill(300, 1, 50) }, func() *pairHist { return fill(300, 20, 500) }},
		{"nested inner", func() *pairHist { return fill(300, 1, 1000) }, func() *pairHist { return fill(300, 10, 20) }},
		{"nested outer", func() *pairHist { return fill(300, 10, 20) }, func() *pairHist { return fill(300, 1, 1000) }},
		{"edge bins", func() *pairHist { return fill(50, histLo/10, histLo) }, func() *pairHist { return fill(50, top, top*10) }},
		{"empty into full", func() *pairHist { return fill(300, 1, 50) }, func() *pairHist { return fill(0, 1, 1) }},
		{"full into empty", func() *pairHist { return fill(0, 1, 1) }, func() *pairHist { return fill(300, 1, 50) }},
		{"empty into empty", func() *pairHist { return fill(0, 1, 1) }, func() *pairHist { return fill(0, 1, 1) }},
	}
	for _, m := range merges {
		a, b := m.a(), m.b()
		a.merge(b)
		a.check(t, m.name)
		b.check(t, m.name+" (merged operand)")
		a.merge(a)
		a.check(t, m.name+" then into itself")
	}

	// A chain, as Series.Merge folds one array's windows after another.
	var sum pairHist
	for i := 0; i < 40; i++ {
		lo := math.Exp(src.Float64()*12) * histLo
		sum.merge(fill(src.Intn(60), lo, lo*math.Exp(3*src.Float64())+histLo))
		sum.check(t, fmt.Sprintf("chain after %d merges", i+1))
	}
}

// FuzzHistogramMatchesDense splits arbitrary samples between two
// histograms, checks each against the dense reference, then merges one
// into the other and the result into itself. Each pair of input bytes is
// one sample, log-uniform from a tenth of histLo to ten times the last
// bin edge; a zero pair is the sample 0.
func FuzzHistogramMatchesDense(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0, 0, 0xff, 0xff, 0x80, 0x00, 0x12, 0x34}, uint8(2))
	f.Add([]byte{0x40, 0x00, 0x40, 0x10, 0xc0, 0x00, 0xc0, 0x20, 0x00, 0x01}, uint8(3))
	lo, hi := math.Log(histLo/10), math.Log(lastEdge*10)
	f.Fuzz(func(t *testing.T, data []byte, cut uint8) {
		var a, b pairHist
		for i := 0; i+1 < len(data); i += 2 {
			v := binary.BigEndian.Uint16(data[i:])
			x := 0.0
			if v != 0 {
				x = math.Exp(lo + (hi-lo)*float64(v)/math.MaxUint16)
			}
			if i/2 < int(cut) {
				a.add(x)
			} else {
				b.add(x)
			}
		}
		a.check(t, "a")
		b.check(t, "b")
		a.merge(&b)
		a.check(t, "a after merging b")
		a.merge(&a)
		a.check(t, "a after merging itself")
	})
}
