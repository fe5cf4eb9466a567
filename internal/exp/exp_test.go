package exp

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"raidsim/internal/array"
	"raidsim/internal/report"
)

func testCtx(buf *strings.Builder, traces ...string) *Context {
	if len(traces) == 0 {
		traces = []string{"trace2"}
	}
	return NewContext(Options{
		Scale:  0.02,
		Traces: traces,
		Seed:   1,
		Out:    buf,
	})
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
	ctx := NewContext(Options{Scale: 0.02, Traces: []string{"trace2"}, Seed: 1, Out: &buf, CSV: true})
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

func TestRunAllFailureNamesTheConfig(t *testing.T) {
	var buf strings.Builder
	ctx := testCtx(&buf)
	tr := ctx.Trace("trace2", 1)
	good := ctx.BaseConfig("trace2")
	bad := ctx.BaseConfig("trace2")
	bad.N = 1 // rejected by config validation
	res, errs := runAll([]job{{cfg: good, tr: tr}, {cfg: bad, tr: tr}})
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
	noteErrors(tbl, []string{"", "001 org=raid5/n=1/sync=DF: core: N must be >= 2", ""})
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "failed run: 001 org=raid5/n=1") {
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
