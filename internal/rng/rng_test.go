package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collide too often: %d/1000", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	a := parent.Split()
	b := parent.Split()
	matches := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			matches++
		}
	}
	if matches > 2 {
		t.Fatalf("split streams correlate: %d/1000 matches", matches)
	}
}

func TestFloat64Range(t *testing.T) {
	src := New(1)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		f := src.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %f outside [0,1)", f)
		}
		sum += f
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %f, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	src := New(2)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		v := src.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < 9000 || c > 11000 {
			t.Fatalf("Intn(7) biased: value %d appeared %d/70000 times", v, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestExpMean(t *testing.T) {
	src := New(3)
	const mean, n = 25.0, 200000
	var sum float64
	for i := 0; i < n; i++ {
		x := src.Exp(mean)
		if x < 0 {
			t.Fatalf("Exp < 0: %f", x)
		}
		sum += x
	}
	if got := sum / n; math.Abs(got-mean)/mean > 0.02 {
		t.Fatalf("Exp mean %f, want ~%f", got, mean)
	}
}

func TestGeometricMean(t *testing.T) {
	src := New(4)
	for _, mean := range []float64{1, 2, 5.5, 16} {
		var sum float64
		const n = 100000
		for i := 0; i < n; i++ {
			k := src.Geometric(mean)
			if k < 1 {
				t.Fatalf("Geometric < 1: %d", k)
			}
			sum += float64(k)
		}
		got := sum / n
		if mean == 1 {
			if got != 1 {
				t.Fatalf("Geometric(1) mean %f, want exactly 1", got)
			}
			continue
		}
		if math.Abs(got-mean)/mean > 0.03 {
			t.Fatalf("Geometric(%f) mean %f", mean, got)
		}
	}
}

func TestBool(t *testing.T) {
	src := New(5)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if src.Bool(0.3) {
			hits++
		}
	}
	if p := float64(hits) / n; math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) rate %f", p)
	}
	if src.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestZipfProbabilitiesMonotone(t *testing.T) {
	z := NewZipf(100, 0.8)
	for i := 1; i < 100; i++ {
		if z.prob(i) > z.prob(i-1)+1e-12 {
			t.Fatalf("Zipf prob not monotone at rank %d", i)
		}
	}
	var total float64
	for i := 0; i < 100; i++ {
		total += z.prob(i)
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("Zipf probs sum to %f", total)
	}
}

func TestZipfUniformWhenThetaZero(t *testing.T) {
	z := NewZipf(10, 0)
	src := New(6)
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Sample(src)]++
	}
	for r, c := range counts {
		if c < 9000 || c > 11000 {
			t.Fatalf("Zipf(theta=0) rank %d count %d, want ~10000", r, c)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipf(10, 1.5)
	src := New(7)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		counts[z.Sample(src)]++
	}
	if counts[0] < 3*counts[4] {
		t.Fatalf("Zipf(1.5) insufficient skew: rank0=%d rank4=%d", counts[0], counts[4])
	}
	// Empirical frequencies should track the analytic probabilities.
	for r := 0; r < 10; r++ {
		want := z.prob(r)
		got := float64(counts[r]) / 100000
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("rank %d: empirical %f, analytic %f", r, got, want)
		}
	}
}

func TestZipfPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewZipf(0, 1) },
		func() { NewZipf(5, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

// TestZipfProbBounds: out-of-range ranks have probability zero instead
// of panicking with an index error (regression: Prob(-1) and Prob(n)
// used to crash).
func TestZipfProbBounds(t *testing.T) {
	z := NewZipf(10, 0.8)
	cases := []struct {
		rank int
		zero bool
	}{
		{-1, true},
		{0, false},
		{9, false}, // n-1: last valid rank
		{10, true}, // n
		{11, true}, // past n
		{-100, true},
	}
	for _, c := range cases {
		got := z.prob(c.rank)
		if c.zero && got != 0 {
			t.Errorf("Prob(%d) = %f, want 0", c.rank, got)
		}
		if !c.zero && got <= 0 {
			t.Errorf("Prob(%d) = %f, want > 0", c.rank, got)
		}
	}
	// In-range probabilities still sum to 1.
	var total float64
	for r := 0; r < z.n(); r++ {
		total += z.prob(r)
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("probs sum to %f, want 1", total)
	}
}
