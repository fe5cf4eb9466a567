package obs

import (
	"encoding/json"
	"fmt"
	"io"

	"raidsim/internal/sim"
)

// SpanSchemaVersion identifies the span export format, carried in the
// Chrome JSON envelope so downstream tooling can detect drift.
const SpanSchemaVersion = "raidsim-spans/1"

// chromeEvent is one Chrome trace-event ("X" complete events for spans,
// "M" metadata events for process/thread names); ts and dur are in
// microseconds, the format Perfetto loads.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	Schema      string        `json:"schema"`
	DisplayUnit string        `json:"displayTimeUnit"`
	Events      []chromeEvent `json:"traceEvents"`
}

func usec(t sim.Time) float64 { return float64(t) / 1e3 }

// WriteSpansChrome exports span trees as Chrome trace-event JSON: one
// process per array, one thread lane per tree (request lanes first, then
// background lanes), parentage recoverable from nesting and from each
// event's "parent" arg.
func WriteSpansChrome(w io.Writer, samples []SpanSample) error {
	tr := chromeTrace{Schema: SpanSchemaVersion, DisplayUnit: "ms"}
	procs := map[int]bool{}
	tid := 0
	for _, sm := range samples {
		t := sm.Tree
		tid++
		if !procs[sm.Array] {
			procs[sm.Array] = true
			tr.Events = append(tr.Events, chromeEvent{
				Name: "process_name", Ph: "M", Pid: sm.Array,
				Args: map[string]any{"name": fmt.Sprintf("array %d", sm.Array)},
			})
		}
		lane := fmt.Sprintf("%05d %s @%.3fms", tid, t.Class, sim.Millis(t.Root().Start))
		tr.Events = append(tr.Events, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: sm.Array, Tid: tid,
			Args: map[string]any{"name": lane},
		})
		for _, s := range t.Spans() {
			args := map[string]any{}
			if s.parent >= 0 {
				args["parent"] = t.at(s.parent).Name
			} else {
				args["class"] = t.Class
			}
			if s.Disk >= 0 {
				args["disk"] = s.Disk
			}
			if s.Blocks > 0 {
				args["blocks"] = s.Blocks
			}
			tr.Events = append(tr.Events, chromeEvent{
				Name: s.Name, Ph: "X",
				Ts: usec(s.Start), Dur: usec(s.Duration()),
				Pid: sm.Array, Tid: tid, Args: args,
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&tr)
}
