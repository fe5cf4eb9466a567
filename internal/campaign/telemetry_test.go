package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"raidsim/internal/obs"
)

// TestExecuteTelemetry runs a campaign with the full telemetry surface
// armed — live registry, self-metrics, a journal — and checks the
// outcome, the registry and the reloaded journal agree with each other,
// then resumes from the journal and checks the replay appends nothing.
func TestExecuteTelemetry(t *testing.T) {
	s := testSpec()
	points, err := s.Points()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	// Telemetry must not perturb results: fingerprints match a bare run.
	bare := executeSpec(t, s, Options{Workers: 1})

	live := obs.NewLive()
	jpath := filepath.Join(dir, "journal.jsonl")
	j, err := OpenJournal(jpath, s.Name, s.Hash())
	if err != nil {
		t.Fatal(err)
	}
	out := executeSpec(t, s, Options{Workers: 2, Journal: j, Live: live, SelfMetrics: true})
	j.Close()

	for i := range out.Records {
		if got, want := out.Records[i].fingerprint(), bare.Records[i].fingerprint(); got != want {
			t.Errorf("telemetry changed run %s:\n got: %s\nwant: %s", points[i].ID, got, want)
		}
	}
	if out.Engine.Events != out.Events {
		t.Errorf("aggregate meter saw %d events, outcome reports %d", out.Engine.Events, out.Events)
	}
	if out.Engine.WallNS <= 0 || out.Engine.HeapHighWater <= 0 {
		t.Errorf("aggregate meter not populated: %+v", out.Engine)
	}
	var poolTasks int
	for _, w := range out.Workers {
		poolTasks += w.Tasks
	}
	if poolTasks != len(points) {
		t.Errorf("pool stats cover %d tasks, want %d", poolTasks, len(points))
	}

	// Live registry agrees.
	f := live.Fleet()
	if f.Total != len(points) || f.Finished != len(points) || f.Failed != 0 || f.Resumed != 0 {
		t.Errorf("fleet status: %+v", f)
	}
	if f.Events != out.Events {
		t.Errorf("fleet events %d, outcome %d", f.Events, out.Events)
	}
	if len(live.Runs()) != len(points) {
		t.Errorf("registry tracks %d runs, want %d", len(live.Runs()), len(points))
	}
	// 2 orgs × 1 N → 2 groups of 2 seeds each.
	if len(f.Groups) != 2 || f.Groups[0].Runs != 2 {
		t.Errorf("fleet groups: %+v", f.Groups)
	}
	if len(f.Workers) == 0 {
		t.Errorf("no worker occupancy published")
	}
	var busyNS int64
	for _, w := range f.Workers {
		busyNS += w.BusyNS
	}
	if float64(busyNS)/1e9 > float64(len(f.Workers))*f.ExecElapsedSec {
		t.Errorf("workers busy %d ns in total, more than %d workers × %gs of execution",
			busyNS, len(f.Workers), f.ExecElapsedSec)
	}

	// The reloaded journal carries each run's worker and engine meter.
	j2, err := OpenJournal(jpath, s.Name, s.Hash())
	if err != nil {
		t.Fatal(err)
	}
	done := j2.Done()
	if len(done) != len(points) {
		t.Fatalf("journal holds %d records, want %d", len(done), len(points))
	}
	var events uint64
	journalBusy := map[int]int64{}
	for id, rec := range done {
		if rec.Worker < 0 || rec.Worker > 1 {
			t.Errorf("%s: worker %d out of pool range", id, rec.Worker)
		}
		if rec.Engine == nil {
			t.Errorf("%s: journaled record has no engine meter", id)
		} else if rec.Engine.Events != rec.Events || rec.Engine.WallNS <= 0 {
			t.Errorf("%s: engine meter %+v disagrees with %d events", id, *rec.Engine, rec.Events)
		}
		events += rec.Events
		journalBusy[rec.Worker] += int64(rec.ElapsedMS * 1e6)
	}
	// The registry's ledger and the journal describe the same runs.
	liveBusy := map[int]int64{}
	for _, ws := range f.Workers {
		if ws.Tasks > 0 {
			liveBusy[ws.Worker] = ws.BusyNS
		}
	}
	if !reflect.DeepEqual(liveBusy, journalBusy) {
		t.Errorf("per-worker busy ns: registry %v, journal records %v", liveBusy, journalBusy)
	}
	if events != out.Events {
		t.Errorf("journal events %d, outcome %d", events, out.Events)
	}

	// Resume: everything replays and the journal gains nothing.
	before, err := os.Stat(jpath)
	if err != nil {
		t.Fatal(err)
	}
	live2 := obs.NewLive()
	out2 := executeSpec(t, s, Options{Workers: 2, Journal: j2, Live: live2})
	j2.Close()
	if out2.Executed != 0 || out2.Skipped != len(points) {
		t.Fatalf("resume executed %d, skipped %d", out2.Executed, out2.Skipped)
	}
	if after, err := os.Stat(jpath); err != nil {
		t.Fatal(err)
	} else if after.Size() != before.Size() {
		t.Errorf("resume grew the journal from %d to %d bytes", before.Size(), after.Size())
	}
	if f2 := live2.Fleet(); f2.Resumed != len(points) || f2.Events != out.Events ||
		len(f2.Workers) != 0 || f2.FreshEventsPerSec != 0 {
		t.Errorf("resumed fleet status: %+v", f2)
	}
}

// TestJournalOmitsEngineWithoutSelfMetrics: an unmetered campaign
// journals no "engine" key, only the worker.
func TestJournalOmitsEngineWithoutSelfMetrics(t *testing.T) {
	s := testSpec()
	jpath := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournal(jpath, s.Name, s.Hash())
	if err != nil {
		t.Fatal(err)
	}
	executeSpec(t, s, Options{Workers: 2, Journal: j})
	j.Close()
	raw, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte(`"engine"`)) {
		t.Error(`unmetered journal carries an "engine" key`)
	}
	if got := bytes.Count(raw, []byte(`"worker":`)); got != 4 {
		t.Errorf(`journal has %d "worker" keys, want one per record (4)`, got)
	}
}

// TestJournalAppendFailureFinishesRun: a run whose journal append fails
// is recorded as failed — in the outcome and the live registry — rather
// than left "running" forever.
func TestJournalAppendFailureFinishesRun(t *testing.T) {
	s := testSpec()
	points, err := s.Points()
	if err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(filepath.Join(t.TempDir(), "journal.jsonl"), s.Name, s.Hash())
	if err != nil {
		t.Fatal(err)
	}
	j.Close() // every Append now fails
	live := obs.NewLive()
	out, err := Execute(points, Options{Workers: 2, Journal: j, Live: live})
	if err != nil {
		t.Fatal(err)
	}
	if out.Executed != 0 {
		t.Errorf("executed %d runs with an unwritable journal, want 0", out.Executed)
	}
	if got := len(out.Failed()); got != len(points) {
		t.Errorf("%d failures, want %d", got, len(points))
	}
	if f := live.Fleet(); f.Failed != len(points) {
		t.Errorf("fleet status: %+v", f)
	}
	for _, r := range live.Runs() {
		if r.State == "running" {
			t.Errorf("%s left running", r.ID)
		}
	}
}
