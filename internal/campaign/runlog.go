package campaign

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"raidsim/internal/sim"
)

// RunLogSchemaVersion identifies the structured run log's JSONL format:
// line 1 is a header object ({"schema", "name"}), every following line
// one RunLogEntry. Where the journal records *simulation results* (and
// is therefore the resume key), the run log records *execution
// telemetry* — wall time, engine self-metrics, worker assignment,
// outcome — and is rewritten from scratch by every execution.
const RunLogSchemaVersion = "raidsim-runlog/1"

// runLogHeader is the first line of every run log file.
type runLogHeader struct {
	Schema string `json:"schema"`
	Name   string `json:"name"`
}

// RunLogEntry is one run's execution telemetry. Outcome is "executed"
// (freshly simulated), "resumed" (replayed from the journal), or
// "failed" (Err carries the reason).
type RunLogEntry struct {
	ID      string `json:"id"`
	Seed    uint64 `json:"seed"`
	Group   string `json:"group,omitempty"`
	Worker  int    `json:"worker"`
	Outcome string `json:"outcome"`
	Err     string `json:"err,omitempty"`

	WallMS   float64 `json:"wall_ms"`
	Events   uint64  `json:"events"`
	Requests int64   `json:"requests"`
	MeanMS   float64 `json:"mean_ms"`

	// Engine carries the run's engine self-metrics when the campaign ran
	// with SelfMetrics; zero otherwise.
	Engine sim.MeterStats `json:"engine"`
}

// RunLogTotals is the fleet-level reduction of a run log, comparable
// against the journal's view of the same campaign.
type RunLogTotals struct {
	Executed, Resumed, Failed int
	Events                    uint64
	Requests                  int64
}

// SummarizeRunLog reduces entries to fleet totals. Failed runs carry no
// events or requests, so the Events/Requests sums cover executed and
// resumed runs — exactly the set the journal holds.
func SummarizeRunLog(entries []RunLogEntry) RunLogTotals {
	var t RunLogTotals
	for _, e := range entries {
		switch e.Outcome {
		case "executed":
			t.Executed++
		case "resumed":
			t.Resumed++
		default:
			t.Failed++
		}
		t.Events += e.Events
		t.Requests += e.Requests
	}
	return t
}

// RunLog is the append-only writer. Unlike the journal it is not a
// resume key: OpenRunLog truncates, so the file always describes the
// most recent execution.
type RunLog struct {
	mu sync.Mutex
	f  *os.File
	w  *bufio.Writer
}

// OpenRunLog creates (truncating) the run log at path for campaign name.
func OpenRunLog(path, name string) (*RunLog, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: run log: %w", err)
	}
	l := &RunLog{f: f, w: bufio.NewWriter(f)}
	hdr, _ := json.Marshal(runLogHeader{Schema: RunLogSchemaVersion, Name: name})
	if _, err := l.w.Write(append(hdr, '\n')); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// Append writes one entry. Safe for concurrent use.
func (l *RunLog) Append(e RunLogEntry) error {
	raw, err := json.Marshal(e)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.w.Write(append(raw, '\n')); err != nil {
		return fmt.Errorf("campaign: run log append: %w", err)
	}
	return nil
}

// Close flushes and releases the file.
func (l *RunLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// ReadRunLog parses a run log file, returning the campaign name, every
// complete entry, and the count of torn lines it skipped. Like the
// journal loader it tolerates a torn tail: the writer flushes line-at-a-
// time, so a process killed mid-append leaves at most a partial final
// line, and everything before it is intact telemetry worth salvaging.
// Torn (or foreign) lines are counted rather than erroring; callers that
// care — post-mortem tooling inspecting a crashed campaign — surface the
// count as a warning. A bad header is still an error: with no valid
// header the file is not a run log at all.
func ReadRunLog(path string) (string, []RunLogEntry, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", nil, 0, err
	}
	defer f.Close()
	sc := newLineScanner(f)
	if !sc.Scan() {
		return "", nil, 0, fmt.Errorf("campaign: run log %s: missing header", path)
	}
	var hdr runLogHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return "", nil, 0, fmt.Errorf("campaign: run log %s: bad header: %w", path, err)
	}
	if hdr.Schema != RunLogSchemaVersion {
		return "", nil, 0, fmt.Errorf("campaign: run log %s has schema %q, want %q", path, hdr.Schema, RunLogSchemaVersion)
	}
	var entries []RunLogEntry
	torn := 0
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e RunLogEntry
		if err := json.Unmarshal(line, &e); err != nil || e.ID == "" {
			// Torn tail from a crash mid-append (or a foreign line):
			// salvage everything parseable and report the damage.
			torn++
			continue
		}
		entries = append(entries, e)
	}
	return hdr.Name, entries, torn, sc.Err()
}
