package logbin

import (
	"fmt"
	"math"
	"testing"

	"raidsim/internal/rng"
)

// The two histogram definitions in use: stats.Summary's and
// obs.Histogram's. Each runs every input below.
var (
	table107 = Build(1e-3, 1.07, midpoint(1e-3, 1.07))
	table108 = Build(1e-3, 1.08, midpoint(1e-3, 1.08))
	tables   = []struct {
		name string
		t    *Table
	}{{"1.07", &table107}, {"1.08", &table108}}
)

func midpoint(lo, growth float64) func(int) float64 {
	return func(b int) float64 { return lo * math.Pow(growth, float64(b)+0.5) }
}

// checkBin compares the lookup with the defining formula at x, in every
// table.
func checkBin(t *testing.T, x float64) {
	t.Helper()
	for _, tb := range tables {
		if got, want := tb.t.Bin(x), tb.t.formula(x); got != want {
			t.Fatalf("%s: Bin(%v [bits %#x]) = %d, formula says %d", tb.name, x, math.Float64bits(x), got, want)
		}
	}
}

// TestBinMatchesFormula checks the table lookup against the formula at
// every bin edge ±4 ulps of either table and over 10M log-uniform
// samples spanning the whole histogram range and beyond. It is defined
// where x/lo is finite, so the fixed inputs stop at 1e300.
func TestBinMatchesFormula(t *testing.T) {
	for _, x := range []float64{-1, 0, math.SmallestNonzeroFloat64, 1e-3, 1, 1e300} {
		checkBin(t, x)
	}
	for _, tb := range tables {
		edges := append([]float64{tb.t.lo}, tb.t.thresh[1:]...)
		for _, e := range edges {
			bits := math.Float64bits(e)
			for d := uint64(0); d <= 4; d++ {
				checkBin(t, math.Float64frombits(bits+d))
				checkBin(t, math.Float64frombits(bits-d))
			}
		}
		for b := 1; b < Bins; b++ {
			th := tb.t.thresh[b]
			if tb.t.formula(th) != b || tb.t.formula(math.Nextafter(th, 0)) != b-1 {
				t.Fatalf("%s: thresh[%d] = %v is not the first float of bin %d", tb.name, b, th, b)
			}
		}
	}
	src := rng.New(11)
	lo, hi := math.Log(1e-3/100), math.Log(table108.thresh[Bins-1]*100)
	for i := 0; i < 10_000_000; i++ {
		checkBin(t, math.Exp(lo+(hi-lo)*src.Float64()))
	}
}

// FuzzBin compares the lookup with the formula on arbitrary inputs
// inside the formula's domain, in every table.
func FuzzBin(f *testing.F) {
	for _, x := range []float64{0, -3, 1e-3, 0.5, 3.7, 1e4, 1e9,
		table107.thresh[7], table107.thresh[Bins-1], table108.thresh[7], table108.thresh[Bins-1]} {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x float64) {
		if math.IsNaN(x) || math.IsInf(x/1e-3, 0) {
			return
		}
		checkBin(t, x)
	})
}

var binSink int

func BenchmarkBin(b *testing.B) {
	b.Run("1.07", func(b *testing.B) { binSink = benchBin(b, &table107) })
	b.Run("1.08", func(b *testing.B) { binSink = benchBin(b, &table108) })
}

// benchBin looks up 1024 exponential samples round robin.
func benchBin(b *testing.B, t *Table) int {
	xs := make([]float64, 1024)
	src := rng.New(3)
	for i := range xs {
		xs[i] = src.Exp(13)
	}
	b.ResetTimer()
	s := 0
	for i := 0; i < b.N; i++ {
		s += t.Bin(xs[i&1023])
	}
	return s
}

// pairCounts is a Counts and its dense reference, fed the same bins and
// merges.
type pairCounts struct {
	c Counts
	d [Bins]int64
}

func (p *pairCounts) add(b int, n int64) {
	p.c.Add(b, n)
	p.d[b] += n
}

func (p *pairCounts) merge(o *pairCounts) {
	p.c.Merge(&o.c)
	for b, n := range o.d { // ranges over a copy, so o may be p
		p.d[b] += n
	}
}

// check compares the counts with the reference: the range they span,
// every bin's Count, Total, Occupied, and Rank at 64 ranks from 1 to the
// total, and at one past it.
func (p *pairCounts) check(t testing.TB, what string) {
	t.Helper()
	c := &p.c
	lo, counts := c.Occupied()
	if lo < 0 || lo+len(counts) > Bins {
		t.Fatalf("%s: bins [%d, %d) outside [0, %d)", what, lo, lo+len(counts), Bins)
	}
	var total int64
	for b, n := range p.d {
		if got := c.Count(b); got != n {
			t.Fatalf("%s: bin %d holds %d, dense %d", what, b, got, n)
		}
		if n != 0 && (b < lo || b >= lo+len(counts) || counts[b-lo] != n) {
			t.Fatalf("%s: bin %d (%d samples) not occupied in [%d, %d)", what, b, n, lo, lo+len(counts))
		}
		total += n
	}
	if got := c.Total(); got != total {
		t.Fatalf("%s: Total %d, dense %d", what, got, total)
	}
	// b is the first bin whose cumulative count cum reaches r.
	b, cum, step := -1, int64(0), max(total/64, 1)
	for r := int64(1); r <= total+1; r = min(r+step, max(r+1, total)) {
		for cum < r && b < Bins-1 {
			b++
			cum += p.d[b]
		}
		want := b
		if cum < r {
			want = -1
		}
		if got := c.Rank(r); got != want {
			t.Fatalf("%s: Rank(%d) = %d, dense %d", what, r, got, want)
		}
	}
}

// TestCountsMatchDense holds Counts to the dense reference after every
// sample of seeded streams binned through each table, after adds of
// several samples at once and a Cover first (as a journal restores
// them), and after merges of disjoint, overlapping, nested, edge-bin and
// empty counts in both directions and of counts into themselves. A copy
// merged into empty counts is independent of its source; a value copy
// shares its bins.
func TestCountsMatchDense(t *testing.T) {
	src := rng.New(31)
	for _, tb := range tables {
		top := tb.t.thresh[Bins-1]
		logUniform := func(lo, hi float64) float64 { return lo * math.Exp(math.Log(hi/lo)*src.Float64()) }
		var p pairCounts
		p.check(t, tb.name+" empty")
		for i := 0; i < 2000; i++ {
			var x float64
			switch i % 4 {
			case 0:
				x = src.Exp(12)
			case 1:
				x = logUniform(tb.t.lo/10, top*10)
			case 2:
				x = tb.t.thresh[1+src.Intn(Bins-1)]
			default:
				x = -src.Float64()
			}
			p.add(tb.t.Bin(x), 1)
			p.check(t, fmt.Sprintf("%s after %d samples", tb.name, i+1))
		}

		var cp pairCounts
		cp.merge(&p)
		alias := p.c
		p.add(tb.t.Bin(1), 1)
		cp.check(t, tb.name+" copy after adding to its source")
		if alias.Count(tb.t.Bin(1)) != p.c.Count(tb.t.Bin(1)) {
			t.Fatalf("%s: a value copy does not share its source's bins", tb.name)
		}
	}

	var r pairCounts
	r.c.Cover(40, 120)
	for _, b := range []int{40, 77, 119} {
		r.add(b, int64(b))
	}
	r.check(t, "covered, then added to")
	r.add(0, 5)
	r.add(Bins-1, 3)
	r.check(t, "covered, then added to both ends")

	fill := func(lo, hi int) *pairCounts {
		p := &pairCounts{}
		for b := lo; b < hi; b++ {
			p.add(b, int64(1+src.Intn(5)))
		}
		return p
	}
	// Each case fills a with bins [alo, ahi) and b with [blo, bhi).
	ranges := []struct {
		name               string
		alo, ahi, blo, bhi int
	}{
		{"disjoint", 30, 50, 150, 170},
		{"overlapping", 60, 120, 100, 140},
		{"nested", 20, 200, 90, 100},
		{"edge bins", 0, 3, Bins - 3, Bins},
		{"empty", 60, 120, 0, 0},
		{"both empty", 0, 0, 0, 0},
	}
	for _, rg := range ranges {
		for _, dir := range []string{"a into b", "b into a"} {
			what := rg.name + ", " + dir
			a, b := fill(rg.alo, rg.ahi), fill(rg.blo, rg.bhi)
			if dir == "b into a" {
				a, b = b, a
			}
			b.merge(a)
			b.check(t, what)
			a.check(t, what+" (merged operand)")
			b.merge(b)
			b.check(t, what+", then into itself")
		}
	}

	// A chain, as core folds one array's summaries after another.
	var sum pairCounts
	for i := 0; i < 40; i++ {
		lo := src.Intn(Bins)
		sum.merge(fill(lo, min(lo+src.Intn(40), Bins)))
		sum.check(t, fmt.Sprintf("chain after %d merges", i+1))
	}
}
