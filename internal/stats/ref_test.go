package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"testing"

	"raidsim/internal/logbin"
	"raidsim/internal/rng"
)

// denseSummary is the reference Summary: the same Welford accumulators
// over a dense histogram of all logbin.Bins bins. Binning and the counts
// themselves are held to their own references in logbin; this one checks
// what Summary adds.
type denseSummary struct {
	n        int64
	mean, m2 float64
	min, max float64
	counts   [logbin.Bins]int64
}

func (d *denseSummary) add(x float64) {
	d.n++
	if d.n == 1 {
		d.min, d.max = x, x
	} else {
		d.min, d.max = min(d.min, x), max(d.max, x)
	}
	delta := x - d.mean
	d.mean += delta / float64(d.n)
	d.m2 += delta * (x - d.mean)
	d.counts[binTable.Bin(x)]++
}

func (d *denseSummary) merge(o *denseSummary) {
	if o.n == 0 {
		return
	}
	if d.n == 0 {
		*d = *o
		return
	}
	n1, n2 := float64(d.n), float64(o.n)
	delta := o.mean - d.mean
	tot := n1 + n2
	d.m2 += o.m2 + delta*delta*n1*n2/tot
	d.mean += delta * n2 / tot
	d.n += o.n
	d.min, d.max = min(d.min, o.min), max(d.max, o.max)
	for b, c := range o.counts { // ranges over a copy, so d may be o
		d.counts[b] += c
	}
}

func (d *denseSummary) quantile(q float64) float64 {
	var total int64
	for _, c := range d.counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	lo, hi := d.min, d.max
	if lo > hi {
		lo, hi = hi, lo
	}
	if q <= 0 {
		return lo
	}
	if q >= 1 {
		return hi
	}
	target := int64(math.Ceil(q * float64(total)))
	var cum int64
	for b, c := range d.counts {
		cum += c
		if cum >= target {
			return min(max(histLo*math.Pow(histStep, float64(b))*math.Sqrt(histStep), lo), hi)
		}
	}
	return hi
}

func (d *denseSummary) state() SummaryState {
	st := SummaryState{N: d.n, Mean: d.mean, M2: d.m2, Min: d.min, Max: d.max}
	for b, c := range d.counts {
		if c != 0 {
			st.Bins = append(st.Bins, [2]int64{int64(b), c})
		}
	}
	return st
}

func denseFromState(st SummaryState) denseSummary {
	d := denseSummary{n: st.N, mean: st.Mean, m2: st.M2, min: st.Min, max: st.Max}
	for _, bc := range st.Bins {
		d.counts[bc[0]] = bc[1]
	}
	return d
}

// pairSummary is a Summary and its dense reference, fed the same
// samples and merges.
type pairSummary struct {
	s Summary
	d denseSummary
}

func (p *pairSummary) add(x float64) {
	p.s.Add(x)
	p.d.add(x)
}

func (p *pairSummary) merge(o *pairSummary) {
	p.s.Merge(&o.s)
	p.d.merge(&o.d)
}

// restored rebuilds the pair from the summary's State, through FromState
// and its dense counterpart.
func (p *pairSummary) restored(t testing.TB) *pairSummary {
	t.Helper()
	st := p.s.State()
	s, err := FromState(st)
	if err != nil {
		t.Fatal(err)
	}
	return &pairSummary{s: s, d: denseFromState(st)}
}

// check compares the summary with its reference bit for bit: N, Mean,
// Var, Min, Max, quantiles at fixed q, and State.
func (p *pairSummary) check(t testing.TB, what string) {
	t.Helper()
	s, d := &p.s, &p.d
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	var wantMean, wantVar, wantMin, wantMax float64
	if d.n > 0 {
		wantMean, wantMin, wantMax = d.mean, d.min, d.max
	}
	if d.n > 1 {
		wantVar = d.m2 / float64(d.n-1)
	}
	if s.N() != d.n || !same(s.Mean(), wantMean) || !same(s.Var(), wantVar) ||
		!same(s.Min(), wantMin) || !same(s.Max(), wantMax) {
		t.Fatalf("%s: n/mean/var/min/max %d/%v/%v/%v/%v, dense %d/%v/%v/%v/%v", what,
			s.N(), s.Mean(), s.Var(), s.Min(), s.Max(), d.n, wantMean, wantVar, wantMin, wantMax)
	}
	for _, q := range []float64{0, 0.01, 0.5, 0.9, 0.95, 0.99, 1} {
		if got, want := s.Quantile(q), d.quantile(q); !same(got, want) {
			t.Fatalf("%s: Quantile(%g) %v, dense %v", what, q, got, want)
		}
	}
	if lo, c := s.hist.Occupied(); lo < 0 || lo+len(c) > logbin.Bins {
		t.Fatalf("%s: bins [%d, %d) outside [0, %d)", what, lo, lo+len(c), logbin.Bins)
	}
	if got, want := s.State(), d.state(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: State %+v, dense %+v", what, got, want)
	}
}

// copyOf merges p into an empty pair, adds one sample to p, and checks
// that the copy did not see it.
func copyOf(t testing.TB, p *pairSummary, x float64, what string) *pairSummary {
	t.Helper()
	var cp pairSummary
	cp.merge(p)
	cp.check(t, what+": copy")
	p.add(x)
	p.check(t, what+": source after the copy")
	cp.check(t, what+": copy after adding to its source")
	return &cp
}

// lastEdge is about where the last bin starts: samples past it all land
// there.
var lastEdge = histLo * math.Pow(histStep, logbin.Bins-1)

// TestSummaryMatchesDense holds Summary to the dense reference after
// every sample of seeded streams that reach below histLo and past the
// last bin edge, after merges of disjoint, overlapping, nested and
// empty summaries in both directions and of a summary into itself, and
// after a FromState round trip.
func TestSummaryMatchesDense(t *testing.T) {
	top := lastEdge
	src := rng.New(31)
	// logUniform draws from [lo, hi), uniform in log space.
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
				return histLo * math.Pow(histStep, float64(1+src.Intn(logbin.Bins-1)))
			}
			return src.Exp(3)
		}},
	}
	for _, s := range streams {
		var p pairSummary
		p.check(t, s.name+" empty")
		for i := 0; i < 3000; i++ {
			p.add(s.gen())
			p.check(t, fmt.Sprintf("%s after %d samples", s.name, i+1))
		}
		r := p.restored(t)
		r.check(t, s.name+" restored")
		for i := 0; i < 300; i++ {
			r.add(s.gen())
		}
		r.check(t, s.name+" restored, then added to")
		copyOf(t, &p, s.gen(), s.name)
	}

	fill := func(n int, lo, hi float64) *pairSummary {
		p := &pairSummary{}
		for i := 0; i < n; i++ {
			p.add(logUniform(lo, hi))
		}
		return p
	}
	// Each case fills a with n samples from [alo, ahi) and b with m from
	// [blo, bhi); extra are two samples added after the merge, outside
	// the merged range where the case has room for them.
	ranges := []struct {
		name     string
		n        int
		alo, ahi float64
		m        int
		blo, bhi float64
		extra    [2]float64
	}{
		{"disjoint", 300, 0.01, 0.05, 300, 500, 2000, [2]float64{1e4, 1e-4}},
		{"overlapping", 300, 1, 50, 300, 20, 500, [2]float64{3000, 0.01}},
		{"nested", 300, 1, 1000, 300, 10, 20, [2]float64{0.05, 1e4}},
		{"edge bins", 50, histLo / 10, histLo, 50, top, top * 10, [2]float64{5, 0}},
		{"empty", 300, 1, 50, 0, 1, 1, [2]float64{1e3, 0.1}},
		{"both empty", 0, 1, 1, 0, 1, 1, [2]float64{7, 7}},
	}
	for _, r := range ranges {
		for _, dir := range []string{"a into b", "b into a"} {
			what := r.name + ", " + dir
			a, b := fill(r.n, r.alo, r.ahi), fill(r.m, r.blo, r.bhi)
			if dir == "b into a" {
				a, b = b, a
			}
			b.merge(a)
			b.check(t, what)
			a.check(t, what+" (merged operand)")
			b.add(r.extra[0])
			b.add(r.extra[1])
			b.check(t, what+", then added to")
			b.merge(b)
			b.check(t, what+", then into itself")
			rb := b.restored(t)
			rb.check(t, what+", restored")
			rb.merge(a)
			rb.check(t, what+", restored, then merged into")
		}
	}

	// A chain, as core folds one array's summaries after another.
	var sum pairSummary
	for i := 0; i < 40; i++ {
		lo := math.Exp(src.Float64()*12) * histLo
		sum.merge(fill(src.Intn(60), lo, lo*math.Exp(3*src.Float64())+histLo))
		sum.check(t, fmt.Sprintf("chain after %d merges", i+1))
	}
}

// FuzzSummaryMatchesDense splits arbitrary samples between two summaries
// and checks each against the dense reference; then copies one by a
// merge into an empty summary, merges in both directions and into
// itself, and round-trips the result through State. Each pair of input
// bytes is one sample, log-uniform from a tenth of histLo to ten times
// the last bin edge; the pairs 0 and 1 are the samples 0 and -1.5.
func FuzzSummaryMatchesDense(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0, 0, 0xff, 0xff, 0x80, 0x00, 0x12, 0x34}, uint8(2))
	f.Add([]byte{0x40, 0x00, 0x40, 0x10, 0xc0, 0x00, 0xc0, 0x20, 0x00, 0x01}, uint8(3))
	lo, hi := math.Log(histLo/10), math.Log(lastEdge*10)
	f.Fuzz(func(t *testing.T, data []byte, cut uint8) {
		var a, b pairSummary
		sample := func(v uint16) float64 {
			switch v {
			case 0:
				return 0
			case 1:
				return -1.5
			}
			return math.Exp(lo + (hi-lo)*float64(v)/math.MaxUint16)
		}
		for i := 0; i+1 < len(data); i += 2 {
			if x := sample(binary.BigEndian.Uint16(data[i:])); i/2 < int(cut) {
				a.add(x)
			} else {
				b.add(x)
			}
		}
		a.check(t, "a")
		b.check(t, "b")
		last := sample(uint16(cut) * 257)
		cp := copyOf(t, &a, last, "a")
		cp.merge(&b)
		cp.check(t, "copy of a after merging b")
		b.merge(&a)
		b.check(t, "b after merging a")
		a.merge(&a)
		a.check(t, "a after merging itself")
		r := b.restored(t)
		r.check(t, "b restored")
		r.add(last)
		r.check(t, "b restored, then added to")
	})
}
