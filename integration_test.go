// Package raidsim_test holds cross-module integration tests: the full
// pipeline from synthetic trace generation through file round-trips to
// multi-array simulation, exercising the same paths the command-line
// tools use.
package raidsim_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"raidsim/internal/array"
	"raidsim/internal/core"
	"raidsim/internal/fault"
	"raidsim/internal/geom"
	"raidsim/internal/layout"
	"raidsim/internal/obs"
	"raidsim/internal/sim"
	"raidsim/internal/trace"
	"raidsim/internal/workload"
)

func smallProfile() workload.Profile {
	p := workload.Trace2Profile()
	p.Requests = 6000
	p.Duration = 300 * sim.Second
	return p
}

// TestPipelineGenerateEncodeSimulate drives generate -> binary file ->
// decode -> simulate, and checks the decoded trace behaves identically to
// the in-memory one.
func TestPipelineGenerateEncodeSimulate(t *testing.T) {
	tr, err := workload.Generate(smallProfile())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	decoded, err := trace.ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}

	cfg := core.Config{
		Org: array.OrgRAID5, DataDisks: 10, N: 10,
		Spec: geom.Default(), Sync: array.DF, Seed: 3,
	}
	direct, err := core.Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	roundtrip, err := core.Run(cfg, decoded)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Resp.Mean() != roundtrip.Resp.Mean() || direct.Events != roundtrip.Events {
		t.Fatalf("file round-trip changed simulation: %f/%d vs %f/%d",
			direct.Resp.Mean(), direct.Events, roundtrip.Resp.Mean(), roundtrip.Events)
	}
}

// TestEveryOrganizationEndToEnd runs each organization, cached and not,
// against the same workload and checks structural sanity of the results.
func TestEveryOrganizationEndToEnd(t *testing.T) {
	tr, err := workload.Generate(smallProfile())
	if err != nil {
		t.Fatal(err)
	}
	type c struct {
		org    array.Org
		cached bool
	}
	cases := []c{
		{array.OrgBase, false}, {array.OrgBase, true},
		{array.OrgMirror, false}, {array.OrgMirror, true},
		{array.OrgRAID5, false}, {array.OrgRAID5, true},
		{array.OrgParityStriping, false}, {array.OrgParityStriping, true},
		{array.OrgRAID4, true},
	}
	for _, tc := range cases {
		cfg := core.Config{
			Org: tc.org, DataDisks: 10, N: 5,
			Spec: geom.Default(), Cached: tc.cached, Seed: 4,
		}
		if tc.org.Reads(array.ReadsSync) {
			cfg.Sync = array.DFPR
		}
		if tc.org.Reads(array.ReadsParityLayout) {
			cfg.Placement = layout.EndPlacement
		}
		if tc.cached {
			cfg.CacheMB = 8
		}
		res, err := core.Run(cfg, tr)
		if err != nil {
			t.Errorf("%v cached=%v: %v", tc.org, tc.cached, err)
			continue
		}
		if res.Requests != int64(len(tr.Records)) {
			t.Errorf("%v cached=%v: lost requests %d/%d", tc.org, tc.cached, res.Requests, len(tr.Records))
		}
		if res.Resp.Mean() <= 0 {
			t.Errorf("%v cached=%v: zero response time", tc.org, tc.cached)
		}
		wantDisks := map[array.Org]int{
			array.OrgBase:           10,
			array.OrgMirror:         20,
			array.OrgRAID5:          12,
			array.OrgRAID4:          12,
			array.OrgParityStriping: 12,
		}[tc.org]
		if len(res.DiskUtil) != wantDisks {
			t.Errorf("%v: %d disks, want %d", tc.org, len(res.DiskUtil), wantDisks)
		}
	}
}

// equivalenceCases enumerates org × cached × faulted combinations whose
// exact simulation outputs are pinned below. The fingerprints were
// captured before the redundancy-scheme refactor of internal/array; the
// refactor (and any future one) must reproduce them bit for bit.
type equivalenceCase struct {
	name    string
	org     array.Org
	sync    array.SyncPolicy
	cached  bool
	faulted bool
}

var equivalenceCases = []equivalenceCase{
	{"base", array.OrgBase, array.DF, false, false},
	{"base+f", array.OrgBase, array.DF, false, true},
	{"base$", array.OrgBase, array.DF, true, false},
	{"base$+f", array.OrgBase, array.DF, true, true},
	{"mirror", array.OrgMirror, array.DF, false, false},
	{"mirror+f", array.OrgMirror, array.DF, false, true},
	{"mirror$", array.OrgMirror, array.DF, true, false},
	{"mirror$+f", array.OrgMirror, array.DF, true, true},
	{"raid5", array.OrgRAID5, array.DF, false, false},
	{"raid5+f", array.OrgRAID5, array.DF, false, true},
	{"raid5$", array.OrgRAID5, array.DF, true, false},
	{"raid5$+f", array.OrgRAID5, array.DF, true, true},
	{"raid5-si", array.OrgRAID5, array.SI, false, false},
	{"pstripe", array.OrgParityStriping, array.DFPR, false, false},
	{"pstripe+f", array.OrgParityStriping, array.DFPR, false, true},
	{"pstripe$", array.OrgParityStriping, array.DFPR, true, false},
	{"pstripe$+f", array.OrgParityStriping, array.DFPR, true, true},
	{"raid4$", array.OrgRAID4, array.DF, true, false},
	{"raid4$+f", array.OrgRAID4, array.DF, true, true},
	{"raid3", array.OrgRAID3, array.DF, false, false},
	{"plog", array.OrgParityLog, array.DF, false, false},
}

// config is the case's system. Placement is set only where the
// organization reads it and the cache size only when cached; elsewhere
// neither ever changed a result, and core.Config.Validate rejects them.
func (tc equivalenceCase) config() core.Config {
	cfg := core.Config{
		Org: tc.org, DataDisks: 10, N: 5,
		Spec: geom.Default(), Sync: tc.sync, Seed: 9,
	}
	if tc.org.Reads(array.ReadsParityLayout) {
		cfg.Placement = layout.EndPlacement
	}
	if tc.cached {
		cfg.Cached, cfg.CacheMB = true, 8
	}
	if tc.faulted {
		cfg.Spares = 1
		cfg.Fault = fault.Config{
			DiskFails: []fault.DiskFail{{Disk: 1, At: 30 * sim.Second}},
		}
		if tc.cached {
			cfg.Fault.CacheFailAt = 60 * sim.Second
		}
	}
	return cfg
}

// equivalenceGolden maps case name -> exact fingerprint (hex floats, so
// equality means bit-identical). Regenerate with
// `go test -run TestRefactorEquivalence -v` and paste the printed lines —
// but only when a model change is intentional.
var equivalenceGolden = map[string]string{
	"base":       "ev=12000 req=4000 resp=4000/0x1.cfc904b636f94p+05 rd=2856/0x1.bbe0f6d345a1bp+05 wr=1144/0x1.00bdaaf66395ep+06 norm=4000/0x1.cfc904b636f94p+05 deg=0/0x0p+00 hits=0,0,0,0 seek=0x1.282f86eb17bbfp+08 held=0 par=0 acc=[76 2059 76 132 695 289 62 147 382 82] fault=0,0,0,0,0,0,0,0,0,0 cache=0,0,0,0,0,0,0,0",
	"base+f":     "ev=12001 req=4000 resp=4000/0x1.cfceb5113bb4ep+05 rd=2856/0x1.bbe0f6d345a1bp+05 wr=1144/0x1.00c79d09e039fp+06 norm=4000/0x1.cfceb5113bb4ep+05 deg=0/0x0p+00 hits=0,0,0,0 seek=0x1.28343cd589294p+08 held=0 par=0 acc=[76 2059 76 132 695 289 62 147 382 82] fault=1,1,0,1,1,0,0,0,0,0 cache=0,0,0,0,0,0,0,0",
	"base$":      "ev=13216 req=4000 resp=4000/0x1.ff8a794c8be43p+04 rd=2856/0x1.626400c4c4a0bp+05 wr=1144/0x1.32131b6135be9p+00 norm=4000/0x1.ff8a794c8be43p+04 deg=0/0x0p+00 hits=137,2719,296,848 seek=0x1.1e872422c214p+08 held=0 par=0 acc=[77 2012 74 130 691 289 61 144 376 80] fault=0,0,0,0,0,0,0,0,0,0 cache=7229,3531,0,0,2011,0,0,2048",
	"base$+f":    "ev=13239 req=4000 resp=4000/0x1.028ecf6f5840ep+05 rd=2856/0x1.6645056b2fceep+05 wr=1144/0x1.341123944c3aap+00 norm=4000/0x1.028ecf6f5840ep+05 deg=0/0x0p+00 hits=110,2746,220,924 seek=0x1.1dd20bd20edbfp+08 held=0 par=0 acc=[77 2027 74 130 692 291 61 145 376 81] fault=1,1,0,1,1,0,0,0,0,0 cache=7349,1552,0,0,2011,0,0,2048",
	"mirror":     "ev=13144 req=4000 resp=4000/0x1.4d67fb90374dcp+05 rd=2856/0x1.25d1d4e8e2f03p+05 wr=1144/0x1.b03bed11bb253p+05 norm=4000/0x1.4d67fb90374dcp+05 deg=0/0x0p+00 hits=0,0,0,0 seek=0x1.03b5f3bb76232p+08 held=0 par=0 acc=[56 49 1453 1184 54 39 106 62 516 395 222 147 48 33 107 74 269 221 65 44] fault=0,0,0,0,0,0,0,0,0,0 cache=0,0,0,0,0,0,0,0",
	"mirror+f":   "ev=22595 req=4000 resp=4000/0x1.50d3737b4cd2p+05 rd=2856/0x1.284ecb6604432p+05 wr=1144/0x1.b5fad312e552bp+05 norm=1473/0x1.0d0b39ec2e1f4p+05 deg=2527/0x1.785624af520c6p+05 hits=0,0,0,0 seek=0x1.c4e133a7498a1p+07 held=0 par=0 acc=[4800 4755 1453 1184 54 39 106 62 516 395 222 147 48 33 107 74 269 221 65 44] fault=1,1,1,1,0,0,0,0,0,0 cache=0,0,0,0,0,0,0,0",
	"mirror$":    "ev=15584 req=4000 resp=4000/0x1.5782eb69d71a4p+04 rd=2856/0x1.d96ec151e5a36p+04 wr=1144/0x1.3299fb05b1b6p+00 norm=4000/0x1.5782eb69d71a4p+04 deg=0/0x0p+00 hits=137,2719,296,848 seek=0x1.c0d4cbb8b1c89p+07 held=0 par=0 acc=[58 49 1466 1141 53 38 102 64 542 379 209 167 49 31 104 74 275 210 65 42] fault=0,0,0,0,0,0,0,0,0,0 cache=7229,3531,0,0,2011,0,0,2048",
	"mirror$+f":  "ev=25818 req=4000 resp=4000/0x1.5eeb53bbd00c2p+04 rd=2856/0x1.e3d2e7b390b1p+04 wr=1144/0x1.31f587c433e7ap+00 norm=1474/0x1.27727d11befa5p+04 deg=2526/0x1.7f49f5e30e192p+04 hits=110,2746,220,924 seek=0x1.7a76067cb1c68p+07 held=0 par=0 acc=[4800 4757 1475 1147 53 38 102 64 542 380 210 168 49 31 104 75 274 211 65 43] fault=1,1,1,1,0,0,0,0,0,0 cache=7349,1552,0,0,2011,0,0,2048",
	"raid5":      "ev=19840 req=4000 resp=4000/0x1.8082a4fe51aa4p+05 rd=2856/0x1.30ac54da5bf23p+05 wr=1144/0x1.23e97b748cc84p+06 norm=4000/0x1.8082a4fe51aa4p+05 deg=0/0x0p+00 hits=0,0,0,0 seek=0x1.6df22b9d20c31p+08 held=108 par=1322 acc=[834 864 859 821 892 846 266 258 301 268 263 242] fault=0,0,0,0,0,0,0,0,0,0 cache=0,0,0,0,0,0,0,0",
	"raid5+f":    "ev=53191 req=4000 resp=4000/0x1.692a8caf8c866p+06 rd=2856/0x1.29c48d7248ba4p+06 wr=1144/0x1.03b8659dfb8f8p+07 norm=1472/0x1.4bc691c78c9ep+05 deg=2528/0x1.dadf632633cadp+06 hits=0,0,0,0 seek=0x1.3ca026453d2p+08 held=61 par=1708 acc=[6296 5277 6319 6282 6347 6296 266 258 301 268 263 242] fault=1,1,1,1,0,0,0,0,0,0 cache=0,0,0,0,0,0,0,0",
	"raid5$":     "ev=21623 req=4000 resp=4000/0x1.6ad18dc979282p+04 rd=2856/0x1.f4a23e03ec1eap+04 wr=1144/0x1.2c33122128a07p+00 norm=4000/0x1.6ad18dc979282p+04 deg=0/0x0p+00 hits=137,2719,296,848 seek=0x1.568b0a9f05414p+08 held=110 par=1357 acc=[837 868 848 831 894 853 262 261 307 271 258 245] fault=0,0,0,0,0,0,0,0,0,0 cache=7229,3531,0,191,2011,0,0,2048",
	"raid5$+f":   "ev=54651 req=4000 resp=4000/0x1.66642c8e8f8b3p+05 rd=2856/0x1.f2362e66e743p+05 wr=1144/0x1.2a89eaba26a06p+00 norm=1474/0x1.42a9979508e56p+04 deg=2526/0x1.d961cbfd832b2p+05 hits=110,2746,220,924 seek=0x1.3c06244e83d61p+08 held=53 par=1723 acc=[6266 5281 6279 6251 6312 6270 261 263 308 272 260 247] fault=1,1,1,1,0,0,0,0,0,0 cache=7349,1552,0,202,2011,0,0,2048",
	"raid5-si":   "ev=20890 req=4000 resp=4000/0x1.96c853a7ae152p+05 rd=2856/0x1.50b35c1b78f16p+05 wr=1144/0x1.22df01bd0943ap+06 norm=4000/0x1.96c853a7ae152p+05 deg=0/0x0p+00 hits=0,0,0,0 seek=0x1.6bd363270c6f1p+08 held=1132 par=1322 acc=[834 864 859 821 892 846 266 258 301 268 263 242] fault=0,0,0,0,0,0,0,0,0,0 cache=0,0,0,0,0,0,0,0",
	"pstripe":    "ev=17837 req=4000 resp=4000/0x1.e29df6690e9eep+05 rd=2856/0x1.a081af46b9123p+05 wr=1144/0x1.43d4bd9ef04cp+06 norm=4000/0x1.e29df6690e9eep+05 deg=0/0x0p+00 hits=0,0,0,0 seek=0x1.18d8a17a178edp+08 held=117 par=1144 acc=[232 1827 356 273 513 713 297 120 112 433 151 117] fault=0,0,0,0,0,0,0,0,0,0 cache=0,0,0,0,0,0,0,0",
	"pstripe+f":  "ev=58501 req=4000 resp=4000/0x1.28d815d3ad4ddp+07 rd=2856/0x1.0550fd73b89a8p+07 wr=1144/0x1.818a05b31e81dp+07 norm=1473/0x1.90c784792b3a8p+05 deg=2527/0x1.9b78ca47f159dp+07 hits=0,0,0,0 seek=0x1.4b6176a0a7689p+08 held=62 par=1631 acc=[7194 5787 7256 7189 7511 7747 297 120 112 433 151 117] fault=1,1,1,1,0,0,0,0,0,0 cache=0,0,0,0,0,0,0,0",
	"pstripe$":   "ev=18931 req=4000 resp=4000/0x1.ad3afbdb71f0dp+04 rd=2856/0x1.28914ec3b60e2p+05 wr=1144/0x1.40a9df306c1a2p+00 norm=4000/0x1.ad3afbdb71f0dp+04 deg=0/0x0p+00 hits=137,2719,296,848 seek=0x1.0be199ef7d3bp+08 held=131 par=1184 acc=[245 1786 354 275 521 711 298 123 110 434 145 116] fault=0,0,0,0,0,0,0,0,0,0 cache=7229,3531,0,191,2011,0,0,2048",
	"pstripe$+f": "ev=59333 req=4000 resp=4000/0x1.355eb7daaae42p+06 rd=2856/0x1.af4c1576419b8p+06 wr=1144/0x1.3e9c448d8df73p+00 norm=1474/0x1.77481e1242c6fp+04 deg=2526/0x1.b3266038b1436p+06 hits=110,2746,220,924 seek=0x1.44752a672061ep+08 held=55 par=1646 acc=[7100 5785 7154 7090 7414 7634 300 123 111 434 145 117] fault=1,1,1,1,0,0,0,0,0,0 cache=7349,1552,0,202,2011,0,0,2048",
	"raid4$":     "ev=20849 req=4000 resp=4000/0x1.556b88b74095dp+04 rd=2856/0x1.d6b740516a79p+04 wr=1144/0x1.2a1f96de0f7bep+00 norm=4000/0x1.556b88b74095dp+04 deg=0/0x0p+00 hits=137,2719,296,848 seek=0x1.4e1e5238d45b6p+08 held=0 par=1331 acc=[705 759 709 774 771 1009 230 236 261 227 222 322] fault=0,0,0,0,0,0,0,0,0,0 cache=7229,3532,0,204,2011,1331,306,2048",
	"raid4$+f":   "ev=54693 req=4000 resp=4000/0x1.b212d9539041ep+05 rd=2856/0x1.2e194a0f1c9b3p+06 wr=1144/0x1.2b79b6d6d1c7p+00 norm=1474/0x1.3894a0056e6fep+04 deg=2526/0x1.2a159e74daa96p+06 hits=110,2746,220,924 seek=0x1.2f49982ee9061p+08 held=6 par=1714 acc=[6213 5086 6208 6276 6275 6845 229 237 261 230 224 322] fault=1,1,1,1,0,0,0,0,0,0 cache=7349,1552,0,202,2011,488,0,2048",
	"raid3":      "ev=29144 req=4000 resp=4000/0x1.96e3d7a13c256p+06 rd=2856/0x1.8ec4928b91fe1p+06 wr=1144/0x1.ab2abf2d403a6p+06 norm=4000/0x1.96e3d7a13c256p+06 deg=0/0x0p+00 hits=0,0,0,0 seek=0x1.5c87182d1093bp+08 held=0 par=1144 acc=[3038 3038 3038 3038 3038 876 962 962 962 962 962 268] fault=0,0,0,0,0,0,0,0,0,0 cache=0,0,0,0,0,0,0,0",
	"plog":       "ev=16147 req=4000 resp=4000/0x1.333898d751e0ap+05 rd=2856/0x1.117d5d9380c11p+05 wr=1144/0x1.876e7b90bca1p+05 norm=4000/0x1.333898d751e0ap+05 deg=0/0x0p+00 hits=0,0,0,0 seek=0x1.74623b8a4ad11p+08 held=0 par=0 acc=[670 701 721 664 738 703 221 202 234 223 219 205] fault=0,0,0,0,0,0,0,0,0,0 cache=0,0,0,0,0,0,0,0",
}

// fingerprint formats the fields of a system result that together pin the
// simulation: every counter and the exact bits of every mean.
func fingerprint(r *core.Results) string {
	var b strings.Builder
	hex := func(f float64) string { return fmt.Sprintf("%x", f) }
	fmt.Fprintf(&b, "ev=%d req=%d resp=%d/%s rd=%d/%s wr=%d/%s norm=%d/%s deg=%d/%s",
		r.Events, r.Requests,
		r.Resp.N(), hex(r.Resp.Mean()),
		r.ReadResp.N(), hex(r.ReadResp.Mean()),
		r.WriteResp.N(), hex(r.WriteResp.Mean()),
		r.NormalResp.N(), hex(r.NormalResp.Mean()),
		r.DegradedResp.N(), hex(r.DegradedResp.Mean()))
	fmt.Fprintf(&b, " hits=%d,%d,%d,%d seek=%s held=%d par=%d",
		r.ReadHits, r.ReadMisses, r.WriteHits, r.WriteMisses,
		hex(r.SeekDistMean), r.HeldRotations, r.ParityAccesses)
	fmt.Fprintf(&b, " acc=%v", r.DiskAccesses)
	f := r.Fault
	fmt.Fprintf(&b, " fault=%d,%d,%d,%d,%d,%d,%d,%d,%d,%d",
		f.Failures, f.SparesUsed, f.Rebuilds, f.DegradedWindows,
		f.DataLossEvents, f.LostReadBlocks, f.LostWriteBlocks,
		f.DirtyBlocksLost, f.SectorErrors, f.FailoverReads)
	c := r.Cache
	fmt.Fprintf(&b, " cache=%d,%d,%d,%d,%d,%d,%d,%d",
		c.Inserts, c.Evictions, c.DirtyEvictions, c.OldCaptured,
		c.Destages, c.ParityQueued, c.ParityStalls, c.PeakUsed)
	return b.String()
}

// TestRefactorEquivalence locks the whole simulation — every organization,
// cached and not, healthy and with a mid-run disk failure (plus an NVRAM
// cache failure for the cached variants) — to fingerprints captured before
// the scheme-pipeline refactor. Any drift is a behavior change, not a
// refactor.
func TestRefactorEquivalence(t *testing.T) {
	p := smallProfile()
	p.Requests = 4000
	p.Duration = 240 * sim.Second
	tr, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range equivalenceCases {
		cfg := tc.config()
		res, err := core.Run(cfg, tr)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
			continue
		}
		got := fingerprint(res)
		want, ok := equivalenceGolden[tc.name]
		if !ok {
			t.Logf("equivalenceGolden[%q] = %q", tc.name, got)
			continue
		}
		if got != want {
			t.Errorf("%s: results drifted from the pre-refactor capture\n got: %s\nwant: %s", tc.name, got, want)
		}
	}
}

// TestObservabilityEquivalence re-runs the equivalence matrix with the
// observability recorder armed and checks every result against the same
// golden fingerprints, modulo the event count: the recorder's sampling
// ticker adds engine events but must not perturb a single request,
// cache, disk or fault statistic. It also sanity-checks that the series
// actually captured the run.
func TestObservabilityEquivalence(t *testing.T) {
	p := smallProfile()
	p.Requests = 4000
	p.Duration = 240 * sim.Second
	tr, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	// Drop the leading "ev=N " field: the sampler is allowed to add
	// engine events, and nothing else.
	stripEv := func(fp string) string {
		if i := strings.Index(fp, " "); i >= 0 && strings.HasPrefix(fp, "ev=") {
			return fp[i+1:]
		}
		return fp
	}
	for _, tc := range equivalenceCases {
		cfg := tc.config()
		cfg.Obs = obs.Config{Window: 10 * sim.Second, TraceCap: 64, SpanTopK: 4}
		res, err := core.Run(cfg, tr)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, ok := equivalenceGolden[tc.name]
		if !ok {
			continue
		}
		if got := stripEv(fingerprint(res)); got != stripEv(want) {
			t.Errorf("%s: recording observability changed the simulation\n got: %s\nwant: %s", tc.name, got, stripEv(want))
		}
		if res.Series == nil {
			t.Fatalf("%s: no series recorded", tc.name)
		}
		var reqs int64
		for _, pt := range res.Series.Points() {
			reqs += pt.Requests
		}
		if reqs != res.Resp.N() {
			t.Errorf("%s: series saw %d requests, results saw %d", tc.name, reqs, res.Resp.N())
		}
		if tc.faulted && len(res.ObsEvents) == 0 {
			t.Errorf("%s: faulted run retained no observability events", tc.name)
		}
		if len(res.TailSpans) == 0 {
			t.Errorf("%s: span tracer armed but no tail samples retained", tc.name)
		}
		for _, s := range res.TailSpans {
			if s.Tree.Duration() <= 0 {
				t.Errorf("%s: retained tree with non-positive duration", tc.name)
			}
		}
	}
}

// TestSelfMetricsEquivalence re-runs the full equivalence matrix with
// engine self-metrics armed and checks the COMPLETE fingerprint — event
// count included — against the golden captures: the meter is pure
// observation, scheduling nothing and consuming no randomness, so unlike
// the obs sampler it may not add even one engine event. It also checks
// the meter's own accounting against the results it rode along with.
func TestSelfMetricsEquivalence(t *testing.T) {
	p := smallProfile()
	p.Requests = 4000
	p.Duration = 240 * sim.Second
	tr, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range equivalenceCases {
		cfg := tc.config()
		cfg.SelfMetrics = true
		res, err := core.Run(cfg, tr)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, ok := equivalenceGolden[tc.name]
		if !ok {
			continue
		}
		if got := fingerprint(res); got != want {
			t.Errorf("%s: metering changed the simulation\n got: %s\nwant: %s", tc.name, got, want)
		}
		m := res.Engine
		if m.Events != res.Events {
			t.Errorf("%s: meter counted %d events, results report %d", tc.name, m.Events, res.Events)
		}
		if m.WallNS <= 0 || m.EventsPerSec() <= 0 {
			t.Errorf("%s: meter wall=%d ev/s=%g", tc.name, m.WallNS, m.EventsPerSec())
		}
		if m.HeapHighWater <= 0 {
			t.Errorf("%s: heap high-water %d", tc.name, m.HeapHighWater)
		}
		if m.CallHits+m.CallMisses == 0 {
			t.Errorf("%s: meter saw no Call free-list traffic", tc.name)
		}
	}
}

// TestWorkerInvariance re-runs the whole equivalence matrix at Workers
// 1, 2 and 4 and demands the same golden fingerprints bit for bit.
// Workers=1 exercises one engine reused, Reset between arrays, across
// every array; 2 matches the matrix's array count; 4 exercises the
// workers-beyond-arrays clamp. Any drift means engine reuse leaked state
// between arrays, or the merge depended on which worker ran which array.
func TestWorkerInvariance(t *testing.T) {
	p := smallProfile()
	p.Requests = 4000
	p.Duration = 240 * sim.Second
	tr, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		for _, tc := range equivalenceCases {
			cfg := tc.config()
			cfg.Workers = workers
			res, err := core.Run(cfg, tr)
			if err != nil {
				t.Fatalf("%s/workers=%d: %v", tc.name, workers, err)
			}
			if got, want := fingerprint(res), equivalenceGolden[tc.name]; got != want {
				t.Errorf("%s/workers=%d: worker count changed the simulation\n got: %s\nwant: %s",
					tc.name, workers, got, want)
			}
		}
	}
}

// closedLoopGolden pins closed-loop replay (MPL 8) of a 5-array system,
// with and without think time, as "mk=<makespan> <fingerprint>". The
// values were captured from the closed-loop implementation that ran its
// own goroutine pool with a closure per request, before it moved onto
// the shared executor.
var closedLoopGolden = map[string]string{
	"raid5/nothink":  "mk=23307697445 ev=16186 req=4000 resp=4000/0x1.7ad29509b00adp+06 rd=2856/0x1.3aeb1a66d5432p+06 wr=1144/0x1.0d2e0a16d7365p+07 norm=4000/0x1.7ad29509b00adp+06 deg=0/0x0p+00 hits=0,0,0,0 seek=0x1.044034ad05192p+08 held=32 par=1583 acc=[1335 1305 1337 119 116 98 698 690 696 103 104 105 287 254 293] fault=0,0,0,0,0,0,0,0,0,0 cache=0,0,0,0,0,0,0,0",
	"raid5/think":    "mk=23452141888 ev=20180 req=4000 resp=4000/0x1.6986a3b601733p+06 rd=2856/0x1.2e32d385799c4p+06 wr=1144/0x1.fda3117fb8d4p+06 norm=4000/0x1.6986a3b601733p+06 deg=0/0x0p+00 hits=0,0,0,0 seek=0x1.0423a009de543p+08 held=31 par=1583 acc=[1335 1305 1337 119 116 98 698 690 696 103 104 105 287 254 293] fault=0,0,0,0,0,0,0,0,0,0 cache=0,0,0,0,0,0,0,0",
	"mirror/nothink": "mk=23869768671 ev=9144 req=4000 resp=4000/0x1.42aa1efb9d08cp+06 rd=2856/0x1.21daa46fde24ep+06 wr=1144/0x1.949372eeddd7cp+06 norm=4000/0x1.42aa1efb9d08cp+06 deg=0/0x0p+00 hits=0,0,0,0 seek=0x1.151b2835db53dp+08 held=0 par=0 acc=[56 49 1351 1286 43 50 89 79 448 463 211 158 47 34 93 88 224 266 64 45] fault=0,0,0,0,0,0,0,0,0,0 cache=0,0,0,0,0,0,0,0",
	"mirror/think":   "mk=24107697437 ev=13139 req=4000 resp=4000/0x1.314bc2157d83ep+06 rd=2856/0x1.1514fe7cd7ea4p+06 wr=1144/0x1.77bb69f174749p+06 norm=4000/0x1.314bc2157d83ep+06 deg=0/0x0p+00 hits=0,0,0,0 seek=0x1.1929083aafb93p+08 held=0 par=0 acc=[56 49 1269 1368 39 54 83 85 456 455 212 157 48 33 90 91 258 232 65 44] fault=0,0,0,0,0,0,0,0,0,0 cache=0,0,0,0,0,0,0,0",
	"raid4$/nothink": "mk=20866337615 ev=14819 req=4000 resp=4000/0x1.4b2bb7be4c1a4p+06 rd=2856/0x1.ce92a73f68824p+06 wr=1144/0x1.8fffaddfaf3ffp-01 norm=4000/0x1.4b2bb7be4c1a4p+06 deg=0/0x0p+00 hits=167,2689,343,801 seek=0x1.945e20945b819p+07 held=0 par=1518 acc=[1078 1105 798 110 88 41 521 529 481 102 98 50 235 236 148] fault=0,0,0,0,0,0,0,0,0,0 cache=7121,1697,0,302,1924,1521,176,2048",
	"raid4$/think":   "mk=20877448726 ev=18689 req=4000 resp=4000/0x1.36f7b4682705bp+06 rd=2856/0x1.b2392d4699ccp+06 wr=1144/0x1.a12cf3708d7d3p-01 norm=4000/0x1.36f7b4682705bp+06 deg=0/0x0p+00 hits=167,2689,343,801 seek=0x1.93696f50c8ff7p+07 held=0 par=1474 acc=[1078 1106 796 110 88 41 512 523 439 103 97 50 235 236 148] fault=0,0,0,0,0,0,0,0,0,0 cache=7121,1702,0,306,1858,1483,197,2048",
}

// TestClosedLoopWorkerInvariance checks closed-loop replay against
// closedLoopGolden at Workers 1, 2 and 4. The think-time cases pin that
// the free-list think delay orders events exactly as a closure would.
func TestClosedLoopWorkerInvariance(t *testing.T) {
	p := smallProfile()
	p.Requests = 4000
	p.Duration = 240 * sim.Second
	tr, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		org    array.Org
		cached bool
	}{{"raid5", array.OrgRAID5, false}, {"mirror", array.OrgMirror, false}, {"raid4$", array.OrgRAID4, true}} {
		for _, think := range []sim.Time{0, 5 * sim.Millisecond} {
			key := tc.name + "/nothink"
			if think > 0 {
				key = tc.name + "/think"
			}
			for _, workers := range []int{1, 2, 4} {
				cfg := core.Config{
					Org: tc.org, DataDisks: 10, N: 2,
					Spec: geom.Default(), Sync: array.DF,
					Cached: tc.cached, Seed: 9,
					Workers: workers,
				}
				if tc.cached {
					cfg.CacheMB = 8
				}
				res, err := core.RunClosedLoop(cfg, tr, core.ClosedLoopConfig{MPL: 8, ThinkTime: think})
				if err != nil {
					t.Fatalf("%s/workers=%d: %v", key, workers, err)
				}
				got := fmt.Sprintf("mk=%d %s", res.Makespan, fingerprint(&res.Results))
				if want := closedLoopGolden[key]; got != want {
					t.Errorf("%s/workers=%d: closed-loop replay drifted\n got: %s\nwant: %s", key, workers, got, want)
				}
			}
		}
	}
}

// TestWorkerMeterSums is the property side of worker invariance: on a
// system with more arrays than workers, the per-array meters must
// partition the run exactly — their events sum to the run's event total
// (worker engines execute nothing but their arrays' events) — and
// metering must not change the results.
func TestWorkerMeterSums(t *testing.T) {
	p := smallProfile()
	tr, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	base := core.Config{
		Org: array.OrgRAID5, DataDisks: 10, N: 2,
		Spec: geom.Default(), Sync: array.DF, Seed: 11,
	}
	plain, err := core.Run(base, tr)
	if err != nil {
		t.Fatal(err)
	}
	metered := base
	metered.Workers = 3 // 5 arrays over 3 workers
	metered.SelfMetrics = true
	res, err := core.Run(metered, tr)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprint(res), fingerprint(plain); got != want {
		t.Errorf("metered 3-worker run drifted from the plain run\n got: %s\nwant: %s", got, want)
	}
	if res.Engine.Events != res.Events {
		t.Errorf("per-array meters sum to %d events, run executed %d", res.Engine.Events, res.Events)
	}
	if res.Engine.WallNS <= 0 || res.Engine.HeapHighWater <= 0 {
		t.Errorf("meter wall=%d heap_hw=%d", res.Engine.WallNS, res.Engine.HeapHighWater)
	}
}

// TestSpanExportPerfetto runs a cached RAID5 with a mid-run disk failure
// and a hot spare, tracer armed, and checks the Chrome trace-event export
// is valid JSON carrying the spans the issue calls out: parity RMW legs
// on the write path and rebuild activity from the spare reconstruction.
func TestSpanExportPerfetto(t *testing.T) {
	p := smallProfile()
	p.Requests = 4000
	p.Duration = 240 * sim.Second
	tr, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{
		Org: array.OrgRAID5, DataDisks: 10, N: 5,
		Spec: geom.Default(), Sync: array.DF,
		Cached: true, CacheMB: 8, Seed: 9,
		Spares: 1,
		Fault: fault.Config{
			DiskFails: []fault.DiskFail{{Disk: 1, At: 30 * sim.Second}},
		},
		Obs: obs.Config{Window: 10 * sim.Second, SpanTopK: 8},
	}
	res, err := core.Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	samples := append(append([]obs.SpanSample(nil), res.TailSpans...), res.BgSpans...)
	if len(samples) == 0 {
		t.Fatal("no span samples retained")
	}
	var buf bytes.Buffer
	if err := obs.WriteSpansChrome(&buf, samples); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema string `json:"schema"`
		Events []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome export is not valid JSON: %v", err)
	}
	if doc.Schema != obs.SpanSchemaVersion {
		t.Fatalf("schema %q, want %q", doc.Schema, obs.SpanSchemaVersion)
	}
	seen := map[string]bool{}
	for _, e := range doc.Events {
		if e.Ph == "X" {
			seen[e.Name] = true
		}
	}
	for _, want := range []string{"rmw-parity", "rebuild", "rebuild-chunk", "destage", obs.SpanQueue, obs.SpanReadOld} {
		if !seen[want] {
			t.Errorf("export has no %q span; span names seen: %v", want, seen)
		}
	}
}

// TestTraceSpeedMonotonicity: doubling the load must not improve response
// time; halving it must not hurt, for every organization.
func TestTraceSpeedMonotonicity(t *testing.T) {
	tr, err := workload.Generate(smallProfile())
	if err != nil {
		t.Fatal(err)
	}
	for _, org := range []array.Org{array.OrgBase, array.OrgRAID5} {
		var means []float64
		for _, speed := range []float64{0.5, 1, 2} {
			cfg := core.Config{
				Org: org, DataDisks: 10, N: 10,
				Spec: geom.Default(), Sync: array.DF, Seed: 5,
			}
			scaled, err := tr.Scale(speed)
			if err != nil {
				t.Fatalf("%v @%g: %v", org, speed, err)
			}
			res, err := core.Run(cfg, scaled)
			if err != nil {
				t.Fatalf("%v @%g: %v", org, speed, err)
			}
			means = append(means, res.Resp.Mean())
		}
		if !(means[0] <= means[1]*1.05 && means[1] <= means[2]*1.05) {
			t.Errorf("%v: response not monotone in load: %v", org, means)
		}
	}
}

// TestStripingUnitExtremesApproachKnownShapes: an enormous striping unit
// makes RAID5 behave like unstriped data + parity, so its balancing edge
// over a 1-block unit should vanish on the skewed trace (Figure 8's
// right-hand side rising toward Parity Striping).
func TestStripingUnitExtremes(t *testing.T) {
	tr, err := workload.Generate(smallProfile())
	if err != nil {
		t.Fatal(err)
	}
	mean := func(su int) float64 {
		cfg := core.Config{
			Org: array.OrgRAID5, DataDisks: 10, N: 10,
			Spec: geom.Default(), Sync: array.DF, StripingUnit: su, Seed: 6,
		}
		res, err := core.Run(cfg, tr)
		if err != nil {
			t.Fatalf("su=%d: %v", su, err)
		}
		return res.Resp.Mean()
	}
	fine, coarse := mean(1), mean(4096)
	if fine >= coarse {
		// Trace 2 is skew-dominated: fine striping must win.
		t.Errorf("striping unit 1 (%.2f ms) should beat 4096 (%.2f ms) on the skewed trace", fine, coarse)
	}
}
