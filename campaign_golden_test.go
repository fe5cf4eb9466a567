package raidsim_test

import (
	"path/filepath"
	"sync"
	"testing"

	"raidsim/internal/campaign"
	"raidsim/internal/core"
	"raidsim/internal/sim"
	"raidsim/internal/workload"
)

// equivalencePoints builds one campaign point per pinned equivalence
// case, with the exact configs TestRefactorEquivalence runs directly.
func equivalencePoints(t *testing.T) []campaign.Point {
	t.Helper()
	p := smallProfile()
	p.Requests = 4000
	p.Duration = 240 * sim.Second
	tr, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	points := make([]campaign.Point, 0, len(equivalenceCases))
	for _, tc := range equivalenceCases {
		points = append(points, campaign.Point{ID: tc.name, Config: tc.config(), Trace: tr})
	}
	return points
}

// TestCampaignReproducesEquivalenceGolden drives the pinned equivalence
// matrix through the campaign pool instead of direct core.Run calls and
// requires the same 19 golden fingerprints bit for bit — the campaign
// layer must be a pure executor. A second Execute against the journal
// must then replay everything and simulate nothing.
func TestCampaignReproducesEquivalenceGolden(t *testing.T) {
	points := equivalencePoints(t)
	journalPath := filepath.Join(t.TempDir(), "equiv.jsonl")
	j, err := campaign.OpenJournal(journalPath, "equiv", 1)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	got := make(map[string]string, len(points))
	out, err := campaign.Execute(points, campaign.Options{
		Workers: 4,
		Journal: j,
		OnResult: func(_ int, p campaign.Point, res *core.Results) {
			mu.Lock()
			got[p.ID] = fingerprint(res)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if failed := out.Failed(); len(failed) > 0 {
		t.Fatalf("runs failed: %v", failed)
	}
	if out.Executed != len(points) {
		t.Fatalf("executed %d, want %d", out.Executed, len(points))
	}
	for name, want := range equivalenceGolden {
		if got[name] != want {
			t.Errorf("%s: campaign run drifted from the pinned capture\n got: %s\nwant: %s", name, got[name], want)
		}
	}
	j.Close()

	j2, err := campaign.OpenJournal(journalPath, "equiv", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	again, err := campaign.Execute(points, campaign.Options{Workers: 4, Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	if again.Executed != 0 || again.Skipped != len(points) {
		t.Errorf("resume executed %d skipped %d, want 0/%d", again.Executed, again.Skipped, len(points))
	}
	for i := range again.Records {
		if again.Records[i].ID == "" {
			t.Errorf("resume lost record for %s", points[i].ID)
		}
	}
}
