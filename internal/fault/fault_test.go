package fault

import (
	"testing"

	"raidsim/internal/sim"
)

type recordingHandler struct {
	diskFails  []int
	failTimes  []sim.Time
	cacheFails int
	eng        *sim.Engine
}

func (h *recordingHandler) FailDisk(d int) {
	h.diskFails = append(h.diskFails, d)
	h.failTimes = append(h.failTimes, h.eng.Now())
}
func (h *recordingHandler) FailCache() { h.cacheFails++ }

func TestDeterministicSchedule(t *testing.T) {
	eng := sim.New()
	in, err := NewInjector(eng, Config{
		DiskFails:   []DiskFail{{Disk: 2, At: 5 * sim.Second}, {Disk: 0, At: sim.Second}},
		CacheFailAt: 3 * sim.Second,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	h := &recordingHandler{eng: eng}
	in.Arm(h)
	eng.Run()
	if len(h.diskFails) != 2 || h.diskFails[0] != 0 || h.diskFails[1] != 2 {
		t.Fatalf("disk failures = %v, want [0 2] in time order", h.diskFails)
	}
	if h.failTimes[0] != sim.Second || h.failTimes[1] != 5*sim.Second {
		t.Fatalf("failure times = %v", h.failTimes)
	}
	if h.cacheFails != 1 {
		t.Fatalf("cache failures = %d, want 1", h.cacheFails)
	}
}

func TestStochasticLifetimesAreDeterministicPerSeed(t *testing.T) {
	times := func(seed uint64) []sim.Time {
		eng := sim.New()
		in, err := NewInjector(eng, Config{MTTF: 10 * sim.Second, Seed: seed}, 8)
		if err != nil {
			t.Fatal(err)
		}
		h := &recordingHandler{eng: eng}
		in.Arm(h)
		eng.Run()
		return h.failTimes
	}
	a, b := times(7), times(7)
	if len(a) != 8 {
		t.Fatalf("expected 8 lifetimes, got %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("lifetime %d differs between identical seeds: %d vs %d", i, a[i], b[i])
		}
	}
	c := times(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical lifetimes")
	}
}

func TestDiskReplacedReArmsLifetime(t *testing.T) {
	eng := sim.New()
	in, err := NewInjector(eng, Config{MTTF: sim.Second, Seed: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := &recordingHandler{eng: eng}
	in.Arm(h)
	if !eng.Step() {
		t.Fatal("no lifetime scheduled")
	}
	if len(h.diskFails) != 1 {
		t.Fatalf("want 1 failure, got %d", len(h.diskFails))
	}
	in.DiskReplaced(0)
	eng.Run()
	if len(h.diskFails) != 2 {
		t.Fatalf("replacement did not get a new lifetime: %d failures", len(h.diskFails))
	}
}

func TestSectorFaultySampling(t *testing.T) {
	eng := sim.New()
	in, err := NewInjector(eng, Config{SectorErrorRate: 0.25, Seed: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		if in.SectorFaulty(1) {
			n++
		}
	}
	got := float64(n) / trials
	if got < 0.23 || got > 0.27 {
		t.Fatalf("single-block error rate = %.4f, want ~0.25", got)
	}
	// Multi-block passes compound the per-block rate.
	n = 0
	for i := 0; i < trials; i++ {
		if in.SectorFaulty(4) {
			n++
		}
	}
	want := 1 - (0.75 * 0.75 * 0.75 * 0.75) // ~0.684
	got = float64(n) / trials
	if got < want-0.02 || got > want+0.02 {
		t.Fatalf("4-block error rate = %.4f, want ~%.4f", got, want)
	}
	if in.SectorFaulty(0) {
		t.Fatal("zero-length pass cannot fail")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{DiskFails: []DiskFail{{Disk: -1}}},
		{DiskFails: []DiskFail{{Disk: 0, At: -1}}},
		{MTTF: -1},
		{CacheFailAt: -1},
		{SectorErrorRate: 1.5},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d validated but should not have", i)
		}
	}
	if (Config{}).Enabled() {
		t.Error("zero config reports enabled")
	}
	if !(Config{MTTF: 1}).Enabled() {
		t.Error("MTTF config reports disabled")
	}
	if _, err := NewInjector(sim.New(), Config{DiskFails: []DiskFail{{Disk: 9}}}, 4); err == nil {
		t.Error("out-of-range deterministic failure accepted")
	}
}

// TestEmpiricalMTTDLMatchesAnalytic is the acceptance check: a stochastic
// failure campaign over >= 100 seeded lifetimes lands within 2x of the
// analytic MTTDL prediction, for both a mirrored pair and an N+1 parity
// array.
func TestEmpiricalMTTDLMatchesAnalytic(t *testing.T) {
	cases := []CampaignConfig{
		{Scheme: MirrorPair, MTTFHours: 1000, MTTRHours: 24, Runs: 400, Seed: 11},
		{Scheme: ParityArray, N: 4, MTTFHours: 1000, MTTRHours: 24, Runs: 400, Seed: 12},
		{Scheme: ParityArray, N: 10, MTTFHours: 2000, MTTRHours: 12, Runs: 400, Seed: 13},
	}
	for _, cfg := range cases {
		res, err := RunCampaign(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Runs < 100 {
			t.Fatalf("%v: campaign ran %d times, want >= 100", cfg.Scheme, res.Runs)
		}
		// The empirical mean should track the exact Markov result closely
		// (sampling error ~1/sqrt(runs)) and the standard approximation
		// within the acceptance criterion's 2x.
		if r := res.Ratio(); r < 0.8 || r > 1.25 {
			t.Errorf("%v N=%d: empirical %.0fh vs exact %.0fh (ratio %.3f)",
				cfg.Scheme, cfg.N, res.EmpiricalMTTDLHours, res.ExactMTTDLHours, r)
		}
		approx := res.EmpiricalMTTDLHours / res.AnalyticMTTDLHours
		if approx < 0.5 || approx > 2 {
			t.Errorf("%v N=%d: empirical %.0fh vs analytic %.0fh outside 2x",
				cfg.Scheme, cfg.N, res.EmpiricalMTTDLHours, res.AnalyticMTTDLHours)
		}
	}
}

func TestCampaignDeterminism(t *testing.T) {
	cfg := CampaignConfig{Scheme: ParityArray, N: 4, MTTFHours: 500, MTTRHours: 24, Runs: 50, Seed: 5}
	a, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Fatalf("identical campaigns diverged: %+v vs %+v", a, b)
	}
}

func TestCampaignWorkerCountInvariant(t *testing.T) {
	base := CampaignConfig{Scheme: ParityArray, N: 6, MTTFHours: 1000, MTTRHours: 12, Runs: 200, Seed: 11, Workers: 1}
	want, err := RunCampaign(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 8} {
		cfg := base
		cfg.Workers = w
		got, err := RunCampaign(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if *got != *want {
			t.Fatalf("workers=%d changed the result:\n got %+v\nwant %+v", w, got, want)
		}
	}
}

func TestCampaignRejectsBadConfig(t *testing.T) {
	if _, err := RunCampaign(CampaignConfig{Scheme: MirrorPair, MTTFHours: 100, MTTRHours: 10}); err == nil {
		t.Error("zero runs accepted")
	}
	if _, err := RunCampaign(CampaignConfig{Scheme: ParityArray, N: 1, MTTFHours: 100, MTTRHours: 10, Runs: 1}); err == nil {
		t.Error("N=1 parity array accepted")
	}
	if _, err := RunCampaign(CampaignConfig{Scheme: MirrorPair, Runs: 1}); err == nil {
		t.Error("zero MTTF accepted")
	}
}
