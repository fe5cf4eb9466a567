package workload

import (
	"cmp"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"raidsim/internal/sim"
	"raidsim/internal/trace"
)

// TestSpecFromProfileBitIdentical is the tentpole's safety contract: a
// built-in profile expressed as a single-client spec must generate the
// bit-identical record stream the profile path generates.
func TestSpecFromProfileBitIdentical(t *testing.T) {
	for _, mk := range []func() Profile{Trace2Profile, DSSProfile} {
		p := mk()
		p.Requests = 20000
		want, err := Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		sp := SpecFromProfile(p)
		got, err := sp.Generate()
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Records) != len(want.Records) {
			t.Fatalf("%s: spec path generated %d records, profile path %d", p.Name, len(got.Records), len(want.Records))
		}
		for i := range want.Records {
			if got.Records[i] != want.Records[i] {
				t.Fatalf("%s: record %d diverges: spec %+v profile %+v", p.Name, i, got.Records[i], want.Records[i])
			}
		}
		if len(got.Classes) != 1 || got.Classes[0].SLO != trace.SLOAuto {
			t.Fatalf("%s: single-client spec classes = %+v, want one auto class", p.Name, got.Classes)
		}
	}
}

// TestSpecPerClassProperties checks each client's slice of the merged
// trace honors its own knobs: exact request count, write fraction and
// multiblock mix within tolerance.
func TestSpecPerClassProperties(t *testing.T) {
	sp := DiurnalSpec()
	tr, err := sp.Generate()
	if err != nil {
		t.Fatal(err)
	}
	type agg struct {
		n, writes, multi int
		blocks           int64
	}
	per := make([]agg, len(sp.Clients))
	var prev sim.Time
	for _, r := range tr.Records {
		if r.At < prev {
			t.Fatalf("merged trace goes back in time at %d < %d", r.At, prev)
		}
		prev = r.At
		a := &per[r.Class]
		a.n++
		if r.Op == trace.Write {
			a.writes++
		}
		if r.Blocks > 1 {
			a.multi++
		}
		a.blocks += int64(r.Blocks)
	}
	for i, c := range sp.Clients {
		a := per[i]
		wantN := int(math.Round(float64(c.Requests) / sp.TimeScale))
		if a.n != wantN {
			t.Errorf("client %s: %d records, want %d", c.Name, a.n, wantN)
		}
		if wf := float64(a.writes) / float64(a.n); math.Abs(wf-c.WriteFraction) > 0.02 {
			t.Errorf("client %s: write fraction %.3f, want %.3f", c.Name, wf, c.WriteFraction)
		}
		if mf := float64(a.multi) / float64(a.n); math.Abs(mf-c.MultiBlockFraction) > 0.03 {
			t.Errorf("client %s: multiblock fraction %.3f, want %.3f", c.Name, mf, c.MultiBlockFraction)
		}
	}
	if tr.Classes[0].SLO != trace.SLOGold || tr.Classes[1].SLO != trace.SLOBatch {
		t.Errorf("diurnal class table wrong: %+v", tr.Classes)
	}
}

// TestTimeScaleInvariance: compressing a spec 12x must preserve every
// client's operating point — arrival rate, mix — and its share of each
// schedule phase (checked via load in the first vs second half-cycle).
func TestTimeScaleInvariance(t *testing.T) {
	base := Spec{
		Name:      "inv",
		Disks:     8,
		DurationS: 7200,
		Seed:      7,
		Clients: []ClientSpec{
			{
				Name: "day", Requests: 60000, WriteFraction: 0.3,
				Arrival: ArrivalSpec{Process: "diurnal", Phases: []PhaseSpec{
					{StartS: 0, Rate: 0.2}, {StartS: 3600, Rate: 1.0},
				}},
			},
			{Name: "flat", Requests: 24000, WriteFraction: 0.1, MultiBlockFraction: 0.5, MeanMultiBlocks: 12},
		},
	}
	type point struct {
		rate, wf, firstHalf float64
	}
	measure := func(ts float64) []point {
		sp := base
		sp.TimeScale = ts
		tr, err := sp.Generate()
		if err != nil {
			t.Fatal(err)
		}
		dur := float64(secs(sp.DurationS/ts)) / float64(sim.Second)
		half := secs(sp.DurationS / ts / 2)
		out := make([]point, len(sp.Clients))
		counts := make([]int, len(sp.Clients))
		writes := make([]int, len(sp.Clients))
		first := make([]int, len(sp.Clients))
		for _, r := range tr.Records {
			counts[r.Class]++
			if r.Op == trace.Write {
				writes[r.Class]++
			}
			if r.At < half {
				first[r.Class]++
			}
		}
		for i := range out {
			out[i] = point{
				rate:      float64(counts[i]) / dur,
				wf:        float64(writes[i]) / float64(counts[i]),
				firstHalf: float64(first[i]) / float64(counts[i]),
			}
		}
		return out
	}
	a, b := measure(1), measure(12)
	for i := range a {
		name := base.Clients[i].Name
		if rel := math.Abs(a[i].rate-b[i].rate) / a[i].rate; rel > 0.01 {
			t.Errorf("client %s: rate %.3f/s at ts=1 vs %.3f/s at ts=12 (rel %.3f)", name, a[i].rate, b[i].rate, rel)
		}
		if math.Abs(a[i].wf-b[i].wf) > 0.02 {
			t.Errorf("client %s: write fraction %.3f vs %.3f across time scales", name, a[i].wf, b[i].wf)
		}
		if math.Abs(a[i].firstHalf-b[i].firstHalf) > 0.05 {
			t.Errorf("client %s: first-half load share %.3f vs %.3f across time scales", name, a[i].firstHalf, b[i].firstHalf)
		}
	}
	// The diurnal client must actually be time-varying: the quiet first
	// half carries far less than half the load.
	if a[0].firstHalf > 0.35 {
		t.Errorf("diurnal client first-half share %.3f, want well under 0.5", a[0].firstHalf)
	}
}

// TestClientSeedIsolation: adding a client must not perturb the streams
// of the existing ones.
func TestClientSeedIsolation(t *testing.T) {
	sp := Spec{
		Name: "iso", Disks: 4, DurationS: 600, Seed: 3,
		Clients: []ClientSpec{{Name: "a", Requests: 3000, WriteFraction: 0.2}},
	}
	one, err := sp.Generate()
	if err != nil {
		t.Fatal(err)
	}
	sp.Clients = append(sp.Clients, ClientSpec{Name: "b", Requests: 3000, WriteFraction: 0.9})
	two, err := sp.Generate()
	if err != nil {
		t.Fatal(err)
	}
	var onlyA []trace.Record
	for _, r := range two.Records {
		if r.Class == 0 {
			onlyA = append(onlyA, r)
		}
	}
	if len(onlyA) != len(one.Records) {
		t.Fatalf("client a generated %d records alone, %d alongside b", len(one.Records), len(onlyA))
	}
	for i := range onlyA {
		if onlyA[i] != one.Records[i] {
			t.Fatalf("client a's record %d changed when client b was added: %+v vs %+v", i, onlyA[i], one.Records[i])
		}
	}
}

func TestSpecValidateErrors(t *testing.T) {
	ok := func() Spec {
		return Spec{Name: "v", Disks: 2, DurationS: 10,
			Clients: []ClientSpec{{Name: "c", Requests: 10}}}
	}
	cases := []struct {
		name string
		mut  func(*Spec)
		frag string
	}{
		{"no clients", func(s *Spec) { s.Clients = nil }, "at least one client"},
		{"no disks", func(s *Spec) { s.Disks = 0 }, "disks"},
		{"dup names", func(s *Spec) { s.Clients = append(s.Clients, s.Clients[0]) }, "duplicate client name"},
		{"bad slo", func(s *Spec) { s.Clients[0].SLOClass = "platinum" }, "unknown slo"},
		{"bad process", func(s *Spec) { s.Clients[0].Arrival.Process = "fractal" }, "unknown arrival process"},
		{"diurnal no phases", func(s *Spec) { s.Clients[0].Arrival.Process = "diurnal" }, "needs phases"},
		{"fractional timescale", func(s *Spec) { s.TimeScale = 0.5 }, "time_scale"},
	}
	for _, c := range cases {
		s := ok()
		c.mut(&s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: error %v, want containing %q", c.name, err, c.frag)
		}
	}
	if err := ok().Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestResolveAndLoadSpec(t *testing.T) {
	if _, err := Resolve("trace2"); err != nil {
		t.Fatalf("builtin trace2: %v", err)
	}
	_, err := Resolve("nope")
	if err == nil || !strings.Contains(err.Error(), "trace1") || !strings.Contains(err.Error(), ".json") {
		t.Fatalf("unknown-name error should list builtins and mention spec paths, got %v", err)
	}

	dir := t.TempDir()
	good := filepath.Join(dir, "w.json")
	if err := os.WriteFile(good, []byte(`{
		"spec": "raidsim-workload/1", "name": "file", "disks": 2, "duration_s": 5,
		"clients": [{"name": "c", "requests": 50}]
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	sp, err := Resolve(good)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Name != "file" || len(sp.Clients) != 1 {
		t.Fatalf("loaded spec %+v", sp)
	}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}

	noheader := filepath.Join(dir, "nh.json")
	os.WriteFile(noheader, []byte(`{"name": "x", "disks": 1, "duration_s": 1, "clients": []}`), 0o644)
	if _, err := LoadSpec(noheader); err == nil || !strings.Contains(err.Error(), "missing version header") {
		t.Fatalf("headerless spec: %v", err)
	}

	typo := filepath.Join(dir, "typo.json")
	os.WriteFile(typo, []byte(`{"spec": "raidsim-workload/1", "name": "x", "disks": 1, "duration_s": 1,
		"clients": [{"name": "c", "requests": 1, "wirte_fraction": 0.5}]}`), 0o644)
	if _, err := LoadSpec(typo); err == nil || !strings.Contains(err.Error(), `did you mean "write_fraction"`) {
		t.Fatalf("typo spec: %v", err)
	}
}

// TestSortRecordsFallback checks sortRecords against slices.SortStableFunc
// on both of its paths — the budgeted insertion pass and the stable-sort
// fallback past the budget — and at the edges. Each record's LBA is its
// input position, so a reordering of equal timestamps shows.
func TestSortRecordsFallback(t *testing.T) {
	const n = 10000
	cases := []struct {
		name string
		at   func(i int) sim.Time
		size int
	}{
		// Bursts that reach back past earlier bursts, as the generator's
		// intra-burst jitter makes them: every 50th record arrives 100
		// places early — far past 64 positions, well inside the move
		// budget — and so does every record of a 150-record stretch. Each
		// lands on the timestamp of the record 100 places back, so the
		// insertion pass must keep ties in input order.
		{"displaced-within-budget", func(i int) sim.Time {
			if i%50 == 49 || (i >= 5000 && i < 5150) {
				return sim.Time(10 * (i - 100))
			}
			return sim.Time(10 * i)
		}, n},
		// Two interleaved ramps: displacement ~ n/2, far past the budget.
		{"interleaved-ramps", func(i int) sim.Time { return sim.Time((i%2)*1000000 + i) }, n},
		// Runs of 100 equal timestamps in descending order (fallback),
		// and one timestamp throughout (insertion, nothing moves).
		{"equal-descending", func(i int) sim.Time { return sim.Time((n - i) / 100) }, n},
		{"equal-all", func(int) sim.Time { return 7 }, n},
		{"empty", nil, 0},
		{"one", func(int) sim.Time { return 3 }, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rs := make([]trace.Record, c.size)
			for i := range rs {
				rs[i] = trace.Record{At: c.at(i), LBA: int64(i)}
			}
			want := slices.Clone(rs)
			slices.SortStableFunc(want, func(a, b trace.Record) int { return cmp.Compare(a.At, b.At) })
			sortRecords(rs)
			for i := range want {
				if rs[i] != want[i] {
					t.Fatalf("record %d: got %+v, stable sort gives %+v", i, rs[i], want[i])
				}
			}
		})
	}
}

// TestDiurnalBoundaryScaling is the deterministic regression for the
// phase-boundary rounding bug: compiling a 24-hour diurnal cycle at a
// non-divisor time scale must place every scaled boundary at the same
// fraction of the scaled period it held unscaled. Rounding boundaries
// independently of the period (the old secs(StartS/ts)) puts the 19h
// boundary at 9771428571429 ns while 19/24 of the rounded period is
// 9771428571428 ns — a nanosecond of drift that shifts arrivals across
// the phase edge.
func TestDiurnalBoundaryScaling(t *testing.T) {
	sp := Spec{
		Name: "bound", Disks: 4, DurationS: 86400, TimeScale: 7, Seed: 1,
		Clients: []ClientSpec{{
			Name: "d", Requests: 86400,
			Arrival: ArrivalSpec{Process: "diurnal", PeriodS: 86400, Phases: []PhaseSpec{
				{StartS: 0, Rate: 0.2}, {StartS: 25200, Rate: 1.0},
				{StartS: 68400, Rate: 0.5}, {StartS: 79200, Rate: 0.1},
			}},
		}},
	}
	sp.fill()
	p, err := sp.clientProfile(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	period := p.SchedulePeriod
	if period != secs(86400.0/7) {
		t.Fatalf("scaled period %d", period)
	}
	for k, ph := range sp.Clients[0].Arrival.Phases {
		want := sim.Time(math.Round(float64(period) * ph.StartS / 86400))
		if p.Schedule[k].Start != want {
			t.Errorf("phase %d (start %gs): scaled boundary %d ns, want %d (= %g/86400 of the %d ns period)",
				k, ph.StartS, p.Schedule[k].Start, want, ph.StartS, period)
		}
	}
	// Pin the drifting value explicitly so the case survives refactors of
	// the want-computation above.
	if got := p.Schedule[2].Start; got != 9771428571428 {
		t.Errorf("19h boundary at ts=7 = %d ns, want 9771428571428", got)
	}
}

// TestTimeScaleAwkwardInvariance compresses the same 24-hour diurnal
// shape at the awkward (non-divisor) scales 7 and 96 and checks each
// phase carries the same share of the load: the shape, not just the
// total, must survive compression.
func TestTimeScaleAwkwardInvariance(t *testing.T) {
	base := Spec{
		Name: "awk", Disks: 8, DurationS: 86400, Seed: 11,
		Clients: []ClientSpec{{
			Name: "d", Requests: 96000, WriteFraction: 0.3,
			Arrival: ArrivalSpec{Process: "diurnal", PeriodS: 86400, Phases: []PhaseSpec{
				{StartS: 0, Rate: 0.1}, {StartS: 25200, Rate: 1.0},
				{StartS: 68400, Rate: 0.5}, {StartS: 79200, Rate: 0.05},
			}},
		}},
	}
	bounds := []float64{0, 25200, 68400, 79200}
	shares := func(ts float64) ([]float64, int) {
		sp := base
		sp.TimeScale = ts
		tr, err := sp.Generate()
		if err != nil {
			t.Fatal(err)
		}
		dur := float64(secs(sp.DurationS / ts))
		counts := make([]int, len(bounds))
		for _, r := range tr.Records {
			// Map the scaled arrival back to its unscaled second and bin
			// it by the unscaled phase edges.
			sec := float64(r.At) / dur * 86400
			k := 0
			for j := len(bounds) - 1; j > 0; j-- {
				if sec >= bounds[j] {
					k = j
					break
				}
			}
			counts[k]++
		}
		out := make([]float64, len(bounds))
		for k, c := range counts {
			out[k] = float64(c) / float64(len(tr.Records))
		}
		return out, len(tr.Records)
	}
	a, na := shares(7)
	b, nb := shares(96)
	if want := int(math.Round(96000.0 / 7)); na != want {
		t.Errorf("ts=7 generated %d records, want %d", na, want)
	}
	if want := 96000 / 96; nb != want {
		t.Errorf("ts=96 generated %d records, want %d", nb, want)
	}
	for k := range bounds {
		if math.Abs(a[k]-b[k]) > 0.05 {
			t.Errorf("phase %d load share %.3f at ts=7 vs %.3f at ts=96", k, a[k], b[k])
		}
	}
	// The shape must actually be diurnal: the busy phase dominates.
	if a[1] < 0.4 {
		t.Errorf("busy-phase share %.3f, want the 1.0-rate phase to dominate", a[1])
	}
}
