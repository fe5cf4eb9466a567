package exp

import (
	"io"
	"math"
	"strconv"
	"strings"
	"testing"

	"raidsim/internal/array"
	"raidsim/internal/fault"
	"raidsim/internal/report"
)

func testCtx(buf *strings.Builder, traces ...string) *Context {
	if len(traces) == 0 {
		traces = []string{"trace2"}
	}
	return mustContext(Options{
		Scale:  0.02,
		Traces: traces,
		Seed:   1,
		Out:    buf,
	})
}

func mustContext(opts Options) *Context {
	ctx, err := NewContext(opts)
	if err != nil {
		panic(err)
	}
	return ctx
}

// TestNewContextRejectsBadTraceNames: an unknown or empty trace name is
// an error that lists the valid names, and a repeated one is an error
// that names it, not a panic at first use or a table printed twice.
func TestNewContextRejectsBadTraceNames(t *testing.T) {
	const valid = "valid: trace1, trace2"
	for _, tc := range []struct {
		traces []string
		want   []string // substrings of the one-line error; nil = accepted
	}{
		{nil, nil},
		{[]string{"trace2"}, nil},
		{[]string{"trace1", "trace2"}, nil},
		{[]string{"trace3"}, []string{`"trace3"`, valid}},
		{[]string{"trace2", ""}, []string{`""`, valid}},
		{[]string{"Trace1"}, []string{`"Trace1"`, valid}},
		{[]string{"trace2", "trace1", "trace2"}, []string{`"trace2"`, "twice"}},
	} {
		_, err := NewContext(Options{Traces: tc.traces, Out: io.Discard})
		if tc.want == nil {
			if err != nil {
				t.Errorf("traces %q: %v", tc.traces, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("traces %q accepted", tc.traces)
			continue
		}
		msg := err.Error()
		for _, want := range tc.want {
			if !strings.Contains(msg, want) {
				t.Errorf("traces %q: error %q lacks %s", tc.traces, msg, want)
			}
		}
		if strings.Contains(msg, "\n") {
			t.Errorf("traces %q: error %q spans lines", tc.traces, msg)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "table2",
		"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
		"ablate-destage", "ablate-pstripe", "ablate-sync-destage",
		"ablate-sched", "ablate-spindles",
		"ext-rebuild", "ext-mttdl", "ext-model", "ext-closedloop", "ext-taxonomy", "ext-paritylog",
		"ext-raid10", "ext-latency", "ext-timeseries", "ext-slo", "ext-diurnal",
	}
	for _, id := range want {
		if _, err := Get(id); err != nil {
			t.Errorf("experiment %q missing", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(want))
	}
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.ID] {
			t.Errorf("duplicate id %q", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.ID)
		}
		if e.Figure == "" || e.Knobs == "" {
			t.Errorf("experiment %q missing -list annotations (figure %q, knobs %q)", e.ID, e.Figure, e.Knobs)
		}
	}
	if _, err := Get("nope"); err == nil {
		t.Error("unknown id resolved")
	}
}

func TestTables(t *testing.T) {
	var buf strings.Builder
	ctx := testCtx(&buf, "trace1", "trace2")
	for _, id := range []string{"table1", "table2", "ext-mttdl"} {
		e, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(ctx); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	out := buf.String()
	for _, want := range []string{"5400 rpm", "Trace 1", "Trace 2", "MTTDL"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestFig5SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are slow")
	}
	var buf strings.Builder
	ctx := testCtx(&buf)
	e, _ := Get("fig5")
	if err := e.Run(ctx); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 5", "base", "mirror", "raid5", "pstripe"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig5 output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "NaN") {
		t.Errorf("fig5 contains failed runs:\n%s", out)
	}
}

// TestExtRebuildSmallScale runs ext-rebuild on the array fault path:
// losing a disk slows the array, a rebuild sweep racing the load slows it
// further, and the sweep finishes. Only the failed runs record responses
// while degraded.
func TestExtRebuildSmallScale(t *testing.T) {
	var buf strings.Builder
	ctx := testCtx(&buf)
	e, _ := Get("ext-rebuild")
	if err := e.Run(ctx); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	resp := map[string]float64{}
	degraded, rebuild := map[string]string{}, map[string]string{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) != 4 {
			continue
		}
		switch f[0] {
		case "healthy", "degraded", "rebuilding":
			ms, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				t.Fatalf("row %q: %v", line, err)
			}
			resp[f[0]], degraded[f[0]], rebuild[f[0]] = ms, f[2], f[3]
		}
	}
	if len(resp) != 3 {
		t.Fatalf("want 3 mode rows, got %d:\n%s", len(resp), out)
	}
	if !(resp["healthy"] < resp["degraded"] && resp["degraded"] < resp["rebuilding"]) {
		t.Errorf("responses not ordered healthy < degraded < rebuilding: %v\n%s", resp, out)
	}
	if rebuild["rebuilding"] == "-" {
		t.Errorf("rebuild did not finish:\n%s", out)
	}
	if degraded["healthy"] != "-" || degraded["degraded"] == "-" || degraded["rebuilding"] == "-" {
		t.Errorf("degraded responses recorded in the wrong modes: %v\n%s", degraded, out)
	}
}

func TestFig11CSV(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are slow")
	}
	var buf strings.Builder
	ctx := mustContext(Options{Scale: 0.02, Traces: []string{"trace2"}, Seed: 1, Out: &buf, CSV: true})
	e, _ := Get("fig11")
	if err := e.Run(ctx); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "cache,base-read,base-write,raid5-read,raid5-write") {
		t.Errorf("CSV header missing:\n%s", out)
	}
	if !strings.Contains(out, "8MB,") {
		t.Errorf("CSV rows missing:\n%s", out)
	}
}

func TestRunFailureNamesTheConfig(t *testing.T) {
	var buf strings.Builder
	ctx := testCtx(&buf)
	tr := ctx.Trace("trace2", 1)
	good := ctx.BaseConfig("trace2")
	bad := ctx.BaseConfig("trace2")
	bad.N = 1 // rejected by config validation
	res, errs := ctx.run([]job{{cfg: good, tr: tr}, {cfg: bad, tr: tr}})
	if res[0] == nil || errs[0] != "" {
		t.Fatalf("good run failed: %q", errs[0])
	}
	if res[1] != nil || errs[1] == "" {
		t.Fatal("bad run did not fail")
	}
	for _, want := range []string{"n=1", "org="} {
		if !strings.Contains(errs[1], want) {
			t.Errorf("error %q does not name the failing config (missing %q)", errs[1], want)
		}
	}
}

func TestNoteErrorsExplainsBlankCells(t *testing.T) {
	var buf strings.Builder
	tbl := &report.Table{Title: "t", Columns: []string{"a"}}
	tbl.AddRow("x")
	noteErrors(tbl, []string{"", "org=raid5/n=1/sync=DF: core: N must be >= 2", ""})
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "failed run: org=raid5/n=1") {
		t.Errorf("rendered table missing failure note:\n%s", out)
	}
}

func TestTraceCaching(t *testing.T) {
	var buf strings.Builder
	ctx := testCtx(&buf)
	a := ctx.Trace("trace2", 1)
	b := ctx.Trace("trace2", 1)
	if a != b {
		t.Error("trace not cached")
	}
	fast := ctx.Trace("trace2", 2)
	if fast == a {
		t.Error("speed-scaled trace should be distinct")
	}
	if fast.Duration() >= a.Duration() {
		t.Error("speed 2 should shorten the trace")
	}
}

func TestBaseConfigDefaultsMatchTable4(t *testing.T) {
	var buf strings.Builder
	ctx := testCtx(&buf)
	cfg := ctx.BaseConfig("trace2")
	if cfg.N != 10 || cfg.StripingUnit != 1 || cfg.CacheMB != 16 {
		t.Errorf("defaults drifted from Table 4: %+v", cfg)
	}
	if cfg.Spec.BlockBytes != 4096 {
		t.Errorf("block size %d, want 4096", cfg.Spec.BlockBytes)
	}
}

// TestSweepFailedCellIsBlankAndNamed runs a sweep with one point that
// fails config validation (N = 1): its cell is NaN, the other is filled,
// and the note names the series, the tick and the config.
func TestSweepFailedCellIsBlankAndNamed(t *testing.T) {
	var buf strings.Builder
	ctx := testCtx(&buf)
	s := sweep{figure: "Figure X", heading: "one bad point", xlabel: "N", ylabel: respMS,
		series: orgs(array.OrgRAID5), ticks: arraySizes(10, 1)}
	fig := s.figureFor(ctx, "trace2", point{})
	if got := fig.Series[0].Values; math.IsNaN(got[0]) || !math.IsNaN(got[1]) {
		t.Fatalf("cells %v, want a value at N=10 and NaN at N=1", got)
	}
	if err := fig.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "\n1   NaN") {
		t.Errorf("failed cell not rendered blank:\n%s", out)
	}
	if len(fig.Notes) != 1 {
		t.Fatalf("notes %q, want one", fig.Notes)
	}
	for _, want := range []string{"failed run: raid5 @1: ", "n=1"} {
		if !strings.Contains(fig.Notes[0], want) {
			t.Errorf("note %q does not name %q", fig.Notes[0], want)
		}
	}
}

// TestContextRunShares: a Context simulates each distinct cell once.
// Re-rendering reuses its cells byte for byte, cells are matched on
// every config field but Workers (nested fields included), and a reused
// failed cell reproduces its note.
func TestContextRunShares(t *testing.T) {
	var buf strings.Builder
	ctx := testCtx(&buf, "trace1")
	render := func(id string) string {
		t.Helper()
		e, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}
		buf.Reset()
		if err := e.Run(ctx); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		return buf.String()
	}
	for _, id := range []string{"fig5", "ext-raid10"} {
		first := render(id)
		n := len(ctx.cells)
		if again := render(id); again != first {
			t.Errorf("%s rendered twice differs:\n%s\nthen\n%s", id, first, again)
		}
		if len(ctx.cells) != n {
			t.Errorf("%s rendered twice added %d cells", id, len(ctx.cells)-n)
		}
	}
	n := len(ctx.cells)
	render("fig6") // non-cached Base at N = 10 on Trace 1: a fig5 cell
	if len(ctx.cells) != n {
		t.Errorf("fig6 after fig5 added %d cells", len(ctx.cells)-n)
	}

	tr := ctx.Trace("trace1", 1)
	cfg := ctx.BaseConfig("trace1")
	cfg.Org = array.OrgMirror // an organization that reads HedgeQuantile
	cfg.N = 20
	cfg.Fault.DiskFails = []fault.DiskFail{{Disk: 0, At: tr.Duration() / 2}}
	cfg.Robust.HedgeQuantile = 0.9
	workers := cfg
	workers.Workers = 3
	failAt := cfg
	failAt.Fault.DiskFails = []fault.DiskFail{{Disk: 0, At: tr.Duration() / 3}}
	hedge := cfg
	hedge.Robust.HedgeQuantile = 0.95
	bad := cfg
	bad.N = 1 // rejected by config validation
	n = len(ctx.cells)
	res, errs := ctx.run([]job{{cfg, tr}, {workers, tr}, {failAt, tr}, {hedge, tr}, {bad, tr}})
	if got := len(ctx.cells) - n; got != 4 {
		t.Errorf("added %d cells, want 4 (Workers shares one; DiskFails[0].At and HedgeQuantile do not)", got)
	}
	if res[0] == nil || res[0] != res[1] {
		t.Error("configs that differ only in Workers do not share results")
	}
	if res[2] == res[0] || res[3] == res[0] {
		t.Error("configs that differ in a nested field share results")
	}
	if errs[4] == "" {
		t.Fatal("N = 1 did not fail")
	}
	n = len(ctx.cells)
	res2, errs2 := ctx.run([]job{{bad, tr}})
	if len(ctx.cells) != n || res2[0] != nil || errs2[0] != errs[4] {
		t.Errorf("reused failed cell: %d new cells, note %q, want none and %q", len(ctx.cells)-n, errs2[0], errs[4])
	}
}
