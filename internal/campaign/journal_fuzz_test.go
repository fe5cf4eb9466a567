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
// after the header is either a loaded record or counted by TornLines,
// and the index holds exactly the loaded records' IDs. Lines split as
// the loader's scanner splits them: on '\n', minus one trailing '\r'.
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
		defer j.Close()
		lines, loaded := 0, 0
		ids := make(map[string]bool)
		for _, line := range bytes.Split(tail, []byte("\n")) {
			line = bytes.TrimSuffix(line, []byte("\r"))
			if len(line) == 0 {
				continue
			}
			lines++
			var rec RunRecord
			if json.Unmarshal(line, &rec) == nil && rec.ID != "" {
				loaded++
				ids[rec.ID] = true
			}
		}
		if loaded+j.TornLines() != lines {
			t.Fatalf("%d records loaded + %d torn != %d non-empty lines", loaded, j.TornLines(), lines)
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
	})
}
