package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"testing"

	"raidsim/internal/sim"
)

// buildTree makes a small realistic request tree: root with one device op
// carrying queue and transfer children.
func buildTree(tr *Tracer, start, dur sim.Time, write, degraded bool) {
	root := tr.Start(start, write)
	op := root.Child("read-data", start)
	op.SetDisk(2)
	op.SetBlocks(4)
	op.ChildSpan(SpanQueue, start, start+dur/4)
	op.ChildSpan(SpanTransfer, start+dur/4, start+dur)
	op.CloseAt(start + dur)
	tr.Finish(root, start+dur, degraded)
}

// TestTopKProperty feeds randomized durations through the tracer and
// checks the retained set per class is exactly the true slowest K.
func TestTopKProperty(t *testing.T) {
	const K = 7
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		tr := NewTracer(K, 0)
		want := map[string][]sim.Time{}
		n := 50 + rng.Intn(200)
		for i := 0; i < n; i++ {
			write := rng.Intn(2) == 1
			degraded := rng.Intn(4) == 0
			dur := sim.Time(1 + rng.Int63n(1_000_000))
			start := sim.Time(i) * 10_000
			buildTree(tr, start, dur, write, degraded)
			want[className(write, degraded)] = append(want[className(write, degraded)], dur)
		}
		got := map[string][]sim.Time{}
		for _, tree := range tr.Requests() {
			got[tree.Class] = append(got[tree.Class], tree.Duration())
		}
		for class, durs := range want {
			sort.Slice(durs, func(i, j int) bool { return durs[i] > durs[j] })
			if len(durs) > K {
				durs = durs[:K]
			}
			g := got[class]
			sort.Slice(g, func(i, j int) bool { return g[i] > g[j] })
			if len(g) != len(durs) {
				t.Fatalf("trial %d class %s: retained %d trees, want %d", trial, class, len(g), len(durs))
			}
			for i := range durs {
				if g[i] != durs[i] {
					t.Fatalf("trial %d class %s rank %d: retained dur %d, want %d", trial, class, i, g[i], durs[i])
				}
			}
		}
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	root := tr.Start(0, true)
	if root != nil {
		t.Fatalf("nil tracer Start = %v, want nil", root)
	}
	root.Child("x", 0).ChildSpan("y", 0, 1)
	root.CloseAt(1)
	root.SetDisk(3)
	root.SetBlocks(9)
	tr.Finish(root, 1, false)
	tr.FinishBackground(tr.StartBackground("bg", 0), 1)
	if tr.Requests() != nil || tr.Background() != nil || tr.BackgroundDropped() != 0 {
		t.Fatal("nil tracer should report nothing")
	}
}

func TestBackgroundRingBound(t *testing.T) {
	tr := NewTracer(1, 3)
	for i := 0; i < 10; i++ {
		root := tr.StartBackground("destage", sim.Time(i)*100)
		tr.FinishBackground(root, sim.Time(i)*100+50)
	}
	if got := len(tr.Background()); got != 3 {
		t.Fatalf("background ring holds %d trees, want 3", got)
	}
	if got := tr.BackgroundDropped(); got != 7 {
		t.Fatalf("BackgroundDropped = %d, want 7", got)
	}
}

func sampleTrees(t *testing.T) []SpanSample {
	t.Helper()
	tr := NewTracer(4, 8)
	root := tr.Start(0, true)
	op := root.Child("rmw-data", 10)
	op.SetDisk(1)
	op.SetBlocks(2)
	op.ChildSpan(SpanQueue, 10, 20)
	op.ChildSpan(SpanReadOld, 20, 30)
	op.ChildSpan(SpanWriteNew, 40, 55)
	op.CloseAt(55)
	pp := root.Child("rmw-parity", 10)
	pp.SetDisk(3)
	pp.SetBlocks(2)
	pp.ChildSpan(SpanReadOld, 12, 25)
	pp.CloseAt(60)
	tr.Finish(root, 70, false)

	bg := tr.StartBackground("rebuild-chunk", 100)
	bg.SetDisk(2)
	bg.ChildSpan("rebuild-read", 100, 140)
	tr.FinishBackground(bg, 150)

	var out []SpanSample
	for _, tree := range tr.Requests() {
		out = append(out, SpanSample{Array: 0, Tree: tree})
	}
	for _, tree := range tr.Background() {
		out = append(out, SpanSample{Array: 0, Tree: tree})
	}
	return out
}

func TestWriteSpansChrome(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSpansChrome(&buf, sampleTrees(t)); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema string `json:"schema"`
		Events []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome export is not valid JSON: %v", err)
	}
	if doc.Schema != SpanSchemaVersion {
		t.Fatalf("schema = %q, want %q", doc.Schema, SpanSchemaVersion)
	}
	var haveMeta, haveRMWLeg, haveBg bool
	for _, e := range doc.Events {
		if e.Ph == "X" && e.Name == "rebuild-chunk" {
			haveBg = true
		}
		if e.Ph == "M" {
			haveMeta = true
		}
		if e.Ph == "X" && e.Name == SpanReadOld && e.Args["parent"] == "rmw-parity" {
			haveRMWLeg = true
		}
	}
	if !haveMeta {
		t.Fatal("no metadata events in Chrome export")
	}
	if !haveRMWLeg {
		t.Fatal("read-old-parity leg (read-old under rmw-parity) not attributable from args.parent")
	}
	if !haveBg {
		t.Fatal("background tree missing from Chrome export")
	}
}

func TestWriteMetricsFormat(t *testing.T) {
	l := NewLive()
	l.Publish(ArraySnapshot{Array: 0, SimSeconds: 1.5, Reads: 10, Writes: 4,
		QueueDepth: 2, DirtyFrac: 0.25, Degraded: true,
		Rebuilding: true, RebuildDisk: 3, RebuildFrac: 0.4,
		WindowRequests: 7, WindowMeanMS: 21.5, WindowP95MS: 60, UtilMean: 0.8, Events: 12345})
	l.Publish(ArraySnapshot{Array: 1, SimSeconds: 1.5})
	var buf bytes.Buffer
	l.WriteMetrics(&buf)
	out := buf.String()
	for _, want := range []string{
		"# HELP raidsim_requests_total",
		"# TYPE raidsim_requests_total counter",
		`raidsim_requests_total{array="0",op="read"} 10`,
		`raidsim_queue_depth{array="0"} 2`,
		`raidsim_degraded{array="0"} 1`,
		`raidsim_rebuild_progress{array="0",disk="3"} 0.4`,
		`raidsim_cache_dirty_fraction{array="0"} 0.25`,
		`raidsim_window_response_ms{array="0",stat="p95"} 60`,
		`raidsim_engine_events_total{array="1"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics output missing %q; got:\n%s", want, out)
		}
	}
	// Prometheus text format: every non-comment line is "name{labels} value".
	for _, ln := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(ln, "#") {
			continue
		}
		if !strings.HasPrefix(ln, "raidsim_") || !strings.Contains(ln, "} ") {
			t.Fatalf("malformed metric line %q", ln)
		}
	}
}

func TestServeMetrics(t *testing.T) {
	l := NewLive()
	l.Publish(ArraySnapshot{Array: 0, Reads: 3})
	srv, err := Serve("127.0.0.1:0", l)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", srv.Addr))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	if !strings.Contains(string(body), `raidsim_requests_total{array="0",op="read"} 3`) {
		t.Fatalf("/metrics body missing request counter:\n%s", body)
	}
	hz, err := http.Get(fmt.Sprintf("http://%s/healthz", srv.Addr))
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d", hz.StatusCode)
	}
}
