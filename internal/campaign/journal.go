package campaign

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// JournalSchemaVersion identifies the journal's JSONL format: line 1 is
// a header object ({"schema", "name", "spec_hash"}), every following
// line one RunRecord.
const JournalSchemaVersion = "raidsim-campaign/1"

// journalHeader is the first line of every journal file.
type journalHeader struct {
	Schema   string `json:"schema"`
	Name     string `json:"name"`
	SpecHash uint64 `json:"spec_hash,omitempty"`
}

// Journal is an append-only JSONL record of completed runs, the unit of
// campaign resumability: every finished run is appended under its
// stable ID, and a restarted campaign skips the IDs already present. A
// torn final line (the process died mid-append) is skipped on load and
// cut off the file, so a crashed campaign resumes from its last complete
// record and its next append starts on a fresh line.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
	done map[string]RunRecord
	torn int
}

// OpenJournal opens (or creates) the journal at path for campaign name
// with the given spec hash. An existing journal must carry the same
// schema, name and hash — a mismatch means the file belongs to a
// different campaign or an edited grid, and appending to it would merge
// incompatible runs.
func OpenJournal(path, name string, specHash uint64) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	j := &Journal{f: f, path: path, done: make(map[string]RunRecord)}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() == 0 {
		hdr, _ := json.Marshal(journalHeader{Schema: JournalSchemaVersion, Name: name, SpecHash: specHash})
		if _, err := f.Write(append(hdr, '\n')); err != nil {
			f.Close()
			return nil, err
		}
		return j, nil
	}
	if err := j.load(name, specHash); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// load parses the existing journal, verifying the header and indexing
// complete records, then mends an unterminated final line — the tail of
// an interrupted append, onto which the next Append would otherwise be
// glued. An intact one (it parses) is terminated; a torn one is counted
// and truncated away.
func (j *Journal) load(name string, specHash uint64) error {
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	sc := newLineScanner(j.f)
	if !sc.Scan() {
		return fmt.Errorf("campaign: journal %s: missing header", j.path)
	}
	var hdr journalHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return fmt.Errorf("campaign: journal %s: bad header: %w", j.path, err)
	}
	if hdr.Schema != JournalSchemaVersion {
		return fmt.Errorf("campaign: journal %s has schema %q, want %q", j.path, hdr.Schema, JournalSchemaVersion)
	}
	if hdr.Name != name {
		return fmt.Errorf("campaign: journal %s belongs to campaign %q, not %q — pick a fresh journal path", j.path, hdr.Name, name)
	}
	if hdr.SpecHash != 0 && specHash != 0 && hdr.SpecHash != specHash {
		return fmt.Errorf("campaign: journal %s was written by a different parameter grid (spec hash %x, want %x) — the grid edit re-keys runs; start a fresh journal", j.path, hdr.SpecHash, specHash)
	}
	intact := sc.tail // the header itself may be the unterminated line
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec RunRecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.ID == "" {
			// A torn tail from a crash mid-append; everything before it
			// is intact, so resume from there.
			j.torn++
			continue
		}
		j.done[rec.ID] = rec
		intact = sc.tail
	}
	if err := sc.Err(); err != nil {
		return err
	}
	switch {
	case !sc.tail:
	case intact:
		if _, err := j.f.Seek(0, io.SeekEnd); err != nil {
			return err
		}
		_, err := j.f.Write([]byte{'\n'})
		return err
	default:
		return j.f.Truncate(sc.complete)
	}
	return nil
}

// lineScanner splits a JSONL file into lines as bufio.ScanLines does (on
// '\n', minus one trailing '\r') and tracks how much of the file is
// newline-terminated, so a loader can tell a final line cut short by a
// crash mid-append from a complete one.
type lineScanner struct {
	*bufio.Scanner
	complete int64 // bytes through the last '\n' scanned
	tail     bool  // the last line scanned had no '\n': it ends the file unterminated
}

func newLineScanner(r io.Reader) *lineScanner {
	s := &lineScanner{Scanner: bufio.NewScanner(r)}
	s.Buffer(make([]byte, 0, 1<<16), 1<<24)
	s.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		adv, tok, err := bufio.ScanLines(data, atEOF)
		if adv > 0 {
			if data[adv-1] == '\n' {
				s.complete += int64(adv)
			} else {
				s.tail = true
			}
		}
		return adv, tok, err
	})
	return s
}

// Done returns the completed records keyed by run ID. The map is the
// journal's live index; callers must not mutate it.
func (j *Journal) Done() map[string]RunRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.done
}

// tornLines reports how many unparsable (torn or foreign) lines the
// load skipped.
func (j *Journal) tornLines() int { return j.torn }

// Append journals one completed run. Records are flushed line-at-a-time
// so the journal never holds more than one torn record after a crash.
func (j *Journal) Append(rec RunRecord) error {
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(append(raw, '\n')); err != nil {
		return fmt.Errorf("campaign: journal append: %w", err)
	}
	j.done[rec.ID] = rec
	return nil
}

// Close releases the journal file.
func (j *Journal) Close() error { return j.f.Close() }
