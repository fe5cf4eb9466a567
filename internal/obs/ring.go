package obs

import (
	"encoding/json"
	"io"

	"raidsim/internal/sim"
)

// Event is one entry of the bounded event trace: a timestamped, typed
// record of something worth seeing on a timeline — a request completion,
// a destage batch, a disk failure, a rebuild milestone. Zero-valued
// fields are omitted from the JSONL export.
type Event struct {
	At     sim.Time `json:"t_ns"`
	Kind   string   `json:"kind"`
	Array  int      `json:"array"`
	Disk   int      `json:"disk,omitempty"`
	Blocks int      `json:"blocks,omitempty"`
	MS     float64  `json:"ms,omitempty"`
	Write  bool     `json:"write,omitempty"`
	Class  int      `json:"class,omitempty"`
}

// Event kinds emitted by the built-in probes.
const (
	EvRequest     = "request"      // a logical request completed (MS = response)
	EvDestage     = "destage"      // a periodic destage batch was issued (Blocks)
	EvDiskFail    = "disk-fail"    // slot Disk died
	EvSpareSwap   = "spare-swap"   // a hot spare replaced slot Disk
	EvRebuildDone = "rebuild-done" // the rebuild sweep of slot Disk finished
	EvCacheFail   = "cache-fail"   // the NVRAM cache died (Blocks = dirty lost)
	EvDataLoss    = "data-loss"    // an unrecoverable failure lost data
	EvTimeout     = "timeout"      // a request finished past its deadline (MS = response)
	EvRetry       = "retry"        // a transient read error triggered a retry on slot Disk
	EvHedge       = "hedge-issued" // a hedged read leg was dispatched to slot Disk
	EvHedgeWin    = "hedge-won"    // the hedge leg on slot Disk finished before the primary
	EvShed        = "shed"         // admission control rejected a request (Class)
	EvSickOnset   = "sick-onset"   // slot Disk turned sick (slow/flaky/hanging)
	EvSickClear   = "sick-clear"   // slot Disk recovered from sickness
)

// ring is a fixed-capacity circular event buffer: the newest TraceCap
// events survive, older ones are overwritten.
type ring struct {
	buf     []Event
	next    int
	total   int64 // events ever appended
	dropped int64
}

func newRing(cap int) *ring {
	return &ring{buf: make([]Event, 0, cap)}
}

func (r *ring) append(e Event) {
	r.total++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
		return
	}
	r.dropped++
	r.buf[r.next] = e
	r.next = (r.next + 1) % len(r.buf)
}

// events returns the retained events in chronological order.
func (r *ring) events() []Event {
	if len(r.buf) < cap(r.buf) || r.next == 0 {
		return append([]Event(nil), r.buf...)
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// EventSchemaVersion identifies the JSONL event export format; the first
// exported line carries it so downstream tooling can detect drift.
const EventSchemaVersion = "raidsim-events/1"

// WriteJSONL writes a schema line, then events one JSON object per line.
func WriteJSONL(w io.Writer, events []Event) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(struct {
		Schema string `json:"schema"`
	}{EventSchemaVersion}); err != nil {
		return err
	}
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}
