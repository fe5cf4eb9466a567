package reliability

import (
	"math"
	"testing"
	"testing/quick"
)

var std = Params{DiskMTTFHours: 100000, MTTRHours: 24}

// TestPaperFootnote: "For large systems, e.g., with over 150 disks, the
// MTTF of the permanent storage subsystem can be less than 28 days"
// (assuming 100,000-hour drives).
func TestPaperFootnote(t *testing.T) {
	days := HoursToDays(FarmMTTDLHours(std, 150))
	if days >= 28 {
		t.Fatalf("150-disk farm MTTDL = %.1f days, paper says < 28", days)
	}
	if days < 27 {
		t.Fatalf("MTTDL = %.1f days; arithmetic drifted (expect ~27.8)", days)
	}
}

func TestFarmScalesInversely(t *testing.T) {
	one := FarmMTTDLHours(std, 1)
	if one != std.DiskMTTFHours {
		t.Fatalf("single disk MTTDL = %f", one)
	}
	if got := FarmMTTDLHours(std, 10); math.Abs(got-one/10) > 1e-9 {
		t.Fatalf("10-disk farm MTTDL = %f", got)
	}
}

func TestRedundancyOrdering(t *testing.T) {
	// For the paper's configuration, redundancy must dominate:
	// mirror pair >> raid5 array >> raw farm of the same rough size.
	farm := FarmMTTDLHours(std, 11)
	raid5 := ArrayMTTDLHours(std, 10)
	mirror := MirrorPairMTTDLHours(std)
	if !(mirror > raid5 && raid5 > farm) {
		t.Fatalf("ordering violated: mirror %g raid5 %g farm %g", mirror, raid5, farm)
	}
	// Mirror pair beats a RAID5 array because 2 < (N+1)*N for N >= 2.
	if mirror/raid5 < 10 {
		t.Fatalf("mirror/raid5 ratio %f, expected large", mirror/raid5)
	}
}

func TestLargerArraysLessReliable(t *testing.T) {
	prev := math.Inf(1)
	for _, n := range []int{2, 5, 10, 20} {
		v := ArrayMTTDLHours(std, n)
		if v >= prev {
			t.Fatalf("MTTDL not decreasing in N at %d", n)
		}
		prev = v
	}
}

func TestZeroMTTRIsInfinitelyReliable(t *testing.T) {
	p := Params{DiskMTTFHours: 1000, MTTRHours: 0}
	if !math.IsInf(MirrorPairMTTDLHours(p), 1) || !math.IsInf(ArrayMTTDLHours(p, 5), 1) {
		t.Fatal("instant repair should give infinite MTTDL")
	}
	if DataLossProbability(math.Inf(1), 1e9) != 0 {
		t.Fatal("infinite MTTDL should give zero loss probability")
	}
}

func TestDataLossProbability(t *testing.T) {
	// t = MTTDL: P = 1 - 1/e.
	got := DataLossProbability(100, 100)
	if math.Abs(got-(1-1/math.E)) > 1e-12 {
		t.Fatalf("P(loss) = %f", got)
	}
	if p := DataLossProbability(1e12, 1); p > 1e-9 {
		t.Fatalf("tiny exposure gave %g", p)
	}
}

func TestQuickProbabilityBounds(t *testing.T) {
	f := func(mttdlRaw, tRaw uint32) bool {
		mttdl := float64(mttdlRaw%1000000) + 1
		tt := float64(tRaw % 1000000)
		p := DataLossProbability(mttdl, tt)
		return p >= 0 && p <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValidate(t *testing.T) {
	if (Params{DiskMTTFHours: 0, MTTRHours: 1}).validate() == nil {
		t.Fatal("zero MTTF accepted")
	}
	if (Params{DiskMTTFHours: 1, MTTRHours: -1}).validate() == nil {
		t.Fatal("negative MTTR accepted")
	}
	if std.validate() != nil {
		t.Fatal("standard params rejected")
	}
}

func TestPanics(t *testing.T) {
	for i, f := range []func(){
		func() { FarmMTTDLHours(std, 0) },
		func() { MirrorFarmMTTDLHours(std, 0) },
		func() { ArrayMTTDLHours(std, 1) },
		func() { ArrayFarmMTTDLHours(std, 5, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}
