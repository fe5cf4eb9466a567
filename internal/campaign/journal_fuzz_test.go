package campaign

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournalLoad appends arbitrary bytes after a valid journal header.
// OpenJournal must never panic; when it loads, every non-empty line
// after the header is either a loaded record or counted by tornLines,
// and the index holds exactly the loaded records' IDs. Lines split as
// the loader's scanner splits them: on '\n', minus one trailing '\r'.
// A record appended after the load must survive a reload beside every
// record loaded before, and the reload must count no torn line beyond
// the newline-terminated ones: an unterminated torn tail is gone.
func FuzzJournalLoad(f *testing.F) {
	hdr, err := json.Marshal(journalHeader{Schema: JournalSchemaVersion, Name: "fuzz", SpecHash: 7})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, tail []byte) {
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		data := append(append(bytes.Clone(hdr), '\n'), tail...)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path, "fuzz", 7)
		if err != nil {
			return
		}
		lines, loaded, tornTerminated := 0, 0, 0
		ids := make(map[string]bool)
		split := bytes.Split(tail, []byte("\n"))
		for i, line := range split {
			line = bytes.TrimSuffix(line, []byte("\r"))
			if len(line) == 0 {
				continue
			}
			lines++
			var rec RunRecord
			if json.Unmarshal(line, &rec) == nil && rec.ID != "" {
				loaded++
				ids[rec.ID] = true
			} else if i < len(split)-1 {
				tornTerminated++
			}
		}
		if loaded+j.tornLines() != lines {
			t.Fatalf("%d records loaded + %d torn != %d non-empty lines", loaded, j.tornLines(), lines)
		}
		done := j.Done()
		if len(done) != len(ids) {
			t.Fatalf("index holds %d IDs, the lines carry %d", len(done), len(ids))
		}
		for id := range ids {
			if _, ok := done[id]; !ok {
				t.Fatalf("record %q not indexed", id)
			}
		}

		const appended = "appended-after-load"
		ids[appended] = true
		if err := j.Append(RunRecord{ID: appended, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j2, err := OpenJournal(path, "fuzz", 7)
		if err != nil {
			t.Fatalf("reload after append: %v", err)
		}
		defer j2.Close()
		for id := range ids {
			if _, ok := j2.Done()[id]; !ok {
				t.Fatalf("record %q lost across append and reload", id)
			}
		}
		if j2.tornLines() != tornTerminated {
			t.Fatalf("reload counts %d torn lines, want the %d newline-terminated ones", j2.tornLines(), tornTerminated)
		}
	})
}

// TestJournalAppendAfterTornTail is the crash-then-resume sequence: a
// record, then a torn line with no newline; reopen, append a record, and
// reopen again. Both records must load and no torn line remain.
func TestJournalAppendAfterTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournal(path, "torn", 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(RunRecord{ID: "a"}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id":"b","se`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j, err = OpenJournal(path, "torn", 7)
	if err != nil {
		t.Fatal(err)
	}
	if j.tornLines() != 1 {
		t.Errorf("first reopen counts %d torn lines, want 1", j.tornLines())
	}
	if err := j.Append(RunRecord{ID: "c"}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j, err = OpenJournal(path, "torn", 7)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	done := j.Done()
	if _, ok := done["a"]; !ok || len(done) != 2 {
		t.Fatalf("records %v, want a and c", done)
	}
	if _, ok := done["c"]; !ok {
		t.Fatal("the record appended after the torn tail was lost")
	}
	if j.tornLines() != 0 {
		t.Errorf("second reopen counts %d torn lines, want 0", j.tornLines())
	}
}
