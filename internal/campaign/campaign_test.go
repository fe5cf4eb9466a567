package campaign

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"raidsim/internal/campaign/shard"
)

// testSpec is small enough to execute in tests: 2 orgs x 2 seeds on a
// heavily scaled-down trace2.
func testSpec() Spec {
	return Spec{
		Name:  "test",
		Scale: 0.02,
		Orgs:  []string{"raid5", "mirror"},
		N:     []int{5},
		Seeds: 2,
		Seed:  7,
	}
}

func TestSpecPointsAreStableAndSeedKeyed(t *testing.T) {
	s := testSpec()
	a, err := s.Points()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != s.size() || len(a) != 4 {
		t.Fatalf("expanded %d points, want %d", len(a), s.size())
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Config.Seed != b[i].Config.Seed {
			t.Fatalf("expansion not stable at %d: %s/%d vs %s/%d",
				i, a[i].ID, a[i].Config.Seed, b[i].ID, b[i].Config.Seed)
		}
		if a[i].Config.Seed != shard.SeedFor(s.Seed, a[i].ID) {
			t.Errorf("%s: seed %d not derived from the ID", a[i].ID, a[i].Config.Seed)
		}
		if a[i].Config.Workers != 1 {
			t.Errorf("%s: per-run Workers = %d, want 1 (pool owns parallelism)", a[i].ID, a[i].Config.Workers)
		}
	}

	// Growing the grid must not re-key or reseed surviving runs.
	grown := s
	grown.N = []int{5, 10}
	g, err := grown.Points()
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[string]uint64)
	for _, p := range g {
		byID[p.ID] = p.Config.Seed
	}
	for _, p := range a {
		seed, ok := byID[p.ID]
		if !ok {
			t.Errorf("grid growth dropped run %s", p.ID)
		} else if seed != p.Config.Seed {
			t.Errorf("grid growth reseeded %s: %d -> %d", p.ID, p.Config.Seed, seed)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	for _, bad := range []Spec{
		{},                                     // no orgs
		{Orgs: []string{"raid9"}},              // unknown org
		{Orgs: []string{"raid5"}, N: []int{1}}, // N too small
		{Orgs: []string{"raid5"}, Traces: []string{"trace9"}},
		{Orgs: []string{"raid5"}, Speeds: []float64{0}},
		{Orgs: []string{"raid5"}, CacheMB: []int{-1}},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("spec %+v validated", bad)
		}
	}
	if err := testSpec().Validate(); err != nil {
		t.Errorf("good spec rejected: %v", err)
	}
}

// TestSpecRejectsUnreadAxis: a setting that reaches an organization
// that cannot read it fails Points, naming the point (so its org and
// axis values) and the field, instead of running inert points.
func TestSpecRejectsUnreadAxis(t *testing.T) {
	for _, tc := range []struct {
		spec Spec
		want []string
	}{
		{Spec{Scale: 0.005, Orgs: []string{"raid5", "base"}, Sync: "rf"},
			[]string{"org=base", "base does not read Sync"}},
		{Spec{Scale: 0.005, Orgs: []string{"raid5", "pstripe"}, StripingUnit: []int{0, 4}},
			[]string{"org=pstripe", "su=4", "pstripe does not read StripingUnit"}},
		{Spec{Scale: 0.005, Orgs: []string{"raid3"}, CacheMB: []int{0, 16}},
			[]string{"org=raid3", "cache=16", "raid3 does not read Cached"}},
	} {
		_, err := tc.spec.Points()
		if err == nil {
			t.Errorf("%+v expanded", tc.spec)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("error %q does not name %q", err, w)
			}
		}
	}
	ok := Spec{Scale: 0.005, Orgs: []string{"raid5", "pstripe"}, Sync: "rf"}
	if _, err := ok.Points(); err != nil {
		t.Errorf("sync on parity organizations rejected: %v", err)
	}
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	_, err := ParseSpec(strings.NewReader(`{"orgs":["raid5"],"cache_sizes":[16]}`))
	if err == nil {
		t.Fatal("typoed axis name accepted")
	}
}

func TestSpecHashTracksGridNotName(t *testing.T) {
	a, b := testSpec(), testSpec()
	b.Name = "renamed"
	b.Workers = 8
	if a.Hash() != b.Hash() {
		t.Error("name/workers changed the grid hash")
	}
	c := testSpec()
	c.Seeds = 3
	if a.Hash() == c.Hash() {
		t.Error("grid edit kept the hash")
	}
}

// executeSpec runs the test spec and returns the outcome.
func executeSpec(t *testing.T, s Spec, opts Options) *Outcome {
	t.Helper()
	points, err := s.Points()
	if err != nil {
		t.Fatal(err)
	}
	out, err := Execute(points, opts)
	if err != nil {
		t.Fatal(err)
	}
	if failed := out.Failed(); len(failed) > 0 {
		t.Fatalf("runs failed: %v", failed)
	}
	return out
}

// TestWorkerCountInvariance is the campaign determinism contract: the
// same spec on 1 worker and on N workers yields bit-identical per-run
// fingerprints and a bit-identical merged fleet.
func TestWorkerCountInvariance(t *testing.T) {
	s := testSpec()
	base := executeSpec(t, s, Options{Workers: 1})
	want := make(map[string]string, len(base.Records))
	for i := range base.Records {
		want[base.Records[i].ID] = base.Records[i].fingerprint()
	}
	baseFleet, err := Merge(base.Records)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4} {
		out := executeSpec(t, s, Options{Workers: w})
		for i := range out.Records {
			r := &out.Records[i]
			if got := r.fingerprint(); got != want[r.ID] {
				t.Errorf("workers=%d: run %s diverged:\n got %s\nwant %s", w, r.ID, got, want[r.ID])
			}
		}
		fleet, err := Merge(out.Records)
		if err != nil {
			t.Fatal(err)
		}
		if fleet.Fingerprint() != baseFleet.Fingerprint() {
			t.Errorf("workers=%d: merged fleet diverged:\n got %s\nwant %s",
				w, fleet.Fingerprint(), baseFleet.Fingerprint())
		}
	}
}

// TestMergeIsOrderIndependent: merging a permuted record slice must give
// the identical fleet, bit for bit.
func TestMergeIsOrderIndependent(t *testing.T) {
	out := executeSpec(t, testSpec(), Options{Workers: 1})
	want, err := Merge(out.Records)
	if err != nil {
		t.Fatal(err)
	}
	perm := make([]RunRecord, 0, len(out.Records))
	for i := len(out.Records) - 1; i >= 0; i-- {
		perm = append(perm, out.Records[i])
	}
	got, err := Merge(perm)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Errorf("merge depends on record order:\n got %s\nwant %s", got.Fingerprint(), want.Fingerprint())
	}
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.jsonl")
	s := testSpec()
	j, err := OpenJournal(path, s.Name, s.Hash())
	if err != nil {
		t.Fatal(err)
	}
	out := executeSpec(t, s, Options{Workers: 2, Journal: j})
	if out.Executed != 4 || out.Skipped != 0 {
		t.Fatalf("executed %d skipped %d, want 4/0", out.Executed, out.Skipped)
	}
	j.Close()

	// Reopen: everything replays, nothing executes, fingerprints match.
	j2, err := OpenJournal(path, s.Name, s.Hash())
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	out2 := executeSpec(t, s, Options{Workers: 2, Journal: j2})
	if out2.Executed != 0 || out2.Skipped != 4 {
		t.Fatalf("resume executed %d skipped %d, want 0/4", out2.Executed, out2.Skipped)
	}
	for i := range out.Records {
		if out.Records[i].fingerprint() != out2.Records[i].fingerprint() {
			t.Errorf("replayed record %s diverged from live run", out.Records[i].ID)
		}
	}
}

func TestJournalRefusesForeignCampaign(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.jsonl")
	j, err := OpenJournal(path, "alpha", 101)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := OpenJournal(path, "beta", 101); err == nil {
		t.Error("journal accepted a different campaign name")
	}
	if _, err := OpenJournal(path, "alpha", 202); err == nil {
		t.Error("journal accepted a different spec hash")
	}
	if _, err := OpenJournal(path, "alpha", 101); err != nil {
		t.Errorf("matching reopen failed: %v", err)
	}
}

// TestResumeAfterTruncation is the interruption story end to end: run M
// runs, truncate the journal back to K complete records (plus a torn
// half-line, as a crash mid-append would leave), restart, and require
// that exactly M-K runs execute and the merged report is bit-identical
// to the uninterrupted one.
func TestResumeAfterTruncation(t *testing.T) {
	s := testSpec()
	s.N = []int{5, 10} // M = 8 runs
	dir := t.TempDir()
	path := filepath.Join(dir, "j.jsonl")
	j, err := OpenJournal(path, s.Name, s.Hash())
	if err != nil {
		t.Fatal(err)
	}
	full := executeSpec(t, s, Options{Workers: 2, Journal: j})
	if full.Executed != 8 {
		t.Fatalf("executed %d, want 8", full.Executed)
	}
	j.Close()
	wantFleet, err := Merge(full.Records)
	if err != nil {
		t.Fatal(err)
	}

	// Keep the header and the first K=3 records, then simulate a crash
	// mid-append with a torn half-record.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	const keep = 3
	truncated := strings.Join(lines[:1+keep], "") + `{"id":"cache=0/n=10/org=rai`
	if err := os.WriteFile(path, []byte(truncated), 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path, s.Name, s.Hash())
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.tornLines() != 1 {
		t.Errorf("torn lines = %d, want 1", j2.tornLines())
	}
	resumed := executeSpec(t, s, Options{Workers: 2, Journal: j2})
	if resumed.Executed != 8-keep || resumed.Skipped != keep {
		t.Fatalf("resume executed %d skipped %d, want %d/%d", resumed.Executed, resumed.Skipped, 8-keep, keep)
	}
	gotFleet, err := Merge(resumed.Records)
	if err != nil {
		t.Fatal(err)
	}
	if gotFleet.Fingerprint() != wantFleet.Fingerprint() {
		t.Errorf("resumed fleet diverged from uninterrupted run:\n got %s\nwant %s",
			gotFleet.Fingerprint(), wantFleet.Fingerprint())
	}
}

func TestExecuteRejectsDuplicateIDs(t *testing.T) {
	s := testSpec()
	points, err := s.Points()
	if err != nil {
		t.Fatal(err)
	}
	points[1] = points[0]
	if _, err := Execute(points, Options{Workers: 1}); err == nil {
		t.Error("duplicate IDs accepted")
	}
}

func TestSelectPairsGroups(t *testing.T) {
	out := executeSpec(t, testSpec(), Options{Workers: 1})
	fleet, err := Merge(out.Records)
	if err != nil {
		t.Fatal(err)
	}
	a, err := fleet.Select("org=raid5")
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 1 {
		t.Fatalf("selected %d groups, want 1", len(a))
	}
	for k, g := range a {
		if strings.Contains(k, "org=") {
			t.Errorf("residual key %q still carries the selector axis", k)
		}
		if g.Runs != 2 {
			t.Errorf("group has %d runs, want 2", g.Runs)
		}
	}
	if _, err := fleet.Select("org"); err == nil {
		t.Error("malformed selector accepted")
	}
}
