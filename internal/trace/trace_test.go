package trace

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"raidsim/internal/rng"
	"raidsim/internal/sim"
)

func sampleTrace() *Trace {
	return &Trace{
		Name:          "sample",
		NumDisks:      4,
		BlocksPerDisk: 1000,
		Records: []Record{
			{At: 0, Op: Read, LBA: 10, Blocks: 1},
			{At: 1000, Op: Write, LBA: 1500, Blocks: 4},
			{At: 1000, Op: Read, LBA: 2100, Blocks: 1},
			{At: 5000, Op: Write, LBA: 3999, Blocks: 1},
		},
	}
}

func randomTrace(seed uint64, n int) *Trace {
	src := rng.New(seed)
	t := &Trace{Name: "rand", NumDisks: 8, BlocksPerDisk: 5000}
	var at sim.Time
	for i := 0; i < n; i++ {
		at += sim.Time(src.Intn(100000)) * sim.Microsecond
		blocks := 1 + src.Intn(16)
		lba := src.Int63n(int64(t.NumDisks)*t.BlocksPerDisk - int64(blocks))
		op := Read
		if src.Bool(0.3) {
			op = Write
		}
		t.Records = append(t.Records, Record{At: at, Op: op, LBA: lba, Blocks: blocks})
	}
	return t
}

func TestValidate(t *testing.T) {
	if err := sampleTrace().Validate(); err != nil {
		t.Fatalf("sample should validate: %v", err)
	}
	bad := []*Trace{
		{Name: "shape", NumDisks: 0, BlocksPerDisk: 10},
		func() *Trace { tr := sampleTrace(); tr.Records[1].At = -1; return tr }(),
		func() *Trace { tr := sampleTrace(); tr.Records[3].At = 100; return tr }(), // goes back
		func() *Trace { tr := sampleTrace(); tr.Records[0].Blocks = 0; return tr }(),
		func() *Trace { tr := sampleTrace(); tr.Records[0].LBA = 4000; return tr }(), // out of space
		func() *Trace { tr := sampleTrace(); tr.Records[1].Blocks = 5000; return tr }(),
		func() *Trace { tr := sampleTrace(); tr.Records[3].LBA = math.MaxInt64; return tr }(), // LBA+Blocks overflows
	}
	for i, tr := range bad {
		if tr.Validate() == nil {
			t.Errorf("bad trace %d validated", i)
		}
	}
	// A capacity past int64 is the shape's fault, whether the product
	// wraps to 0 or to a positive total the records happen to fit.
	for _, bpd := range []int64{1 << 62, 1<<62 + 25} {
		tr := &Trace{Name: "big", NumDisks: 4, BlocksPerDisk: bpd, Records: []Record{{LBA: 5, Blocks: 1}}}
		err := tr.Validate()
		if err == nil || !strings.Contains(err.Error(), "shape") {
			t.Errorf("4 disks x %d blocks: got %v, want a shape error", bpd, err)
		}
	}
}

func TestScale(t *testing.T) {
	tr := sampleTrace()
	fast, err := tr.Scale(2)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Duration() != tr.Duration()/2 {
		t.Fatalf("2x speed duration %d, want %d", fast.Duration(), tr.Duration()/2)
	}
	if len(fast.Records) != len(tr.Records) {
		t.Fatal("scaling changed record count")
	}
	slow, err := tr.Scale(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Duration() != tr.Duration()*2 {
		t.Fatalf("0.5x speed duration %d", slow.Duration())
	}
	// Original untouched.
	if tr.Records[1].At != 1000 {
		t.Fatal("Scale mutated the source trace")
	}
	if _, err := tr.Scale(0); err == nil {
		t.Fatal("zero speed should be rejected")
	}
	if _, err := tr.Scale(-1); err == nil {
		t.Fatal("negative speed should be rejected")
	}
}

func TestTruncate(t *testing.T) {
	tr := sampleTrace()
	cut := tr.Truncate(2)
	if len(cut.Records) != 2 {
		t.Fatalf("truncate kept %d records", len(cut.Records))
	}
	if same := tr.Truncate(100); same != tr {
		t.Fatal("truncate beyond length should return the original")
	}
}

func TestSplitByGroup(t *testing.T) {
	tr := sampleTrace()
	subs, err := tr.SplitByGroup(2) // disks {0,1}, {2,3}
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 2 {
		t.Fatalf("got %d groups", len(subs))
	}
	if len(subs[0].Records) != 2 || len(subs[1].Records) != 2 {
		t.Fatalf("group sizes %d/%d", len(subs[0].Records), len(subs[1].Records))
	}
	// Re-addressing: group 1's first record was LBA 2100 (disk 2) ->
	// 2100 - 2*1000 = 100.
	if subs[1].Records[0].LBA != 100 {
		t.Fatalf("re-addressed LBA = %d, want 100", subs[1].Records[0].LBA)
	}
	for _, sub := range subs {
		if err := sub.Validate(); err != nil {
			t.Fatalf("split part invalid: %v", err)
		}
	}
	// Uneven split: 4 disks into groups of 3 -> groups of 3 and 1 disks.
	subs, err = tr.SplitByGroup(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 2 || subs[0].NumDisks != 3 || subs[1].NumDisks != 1 {
		t.Fatalf("uneven split wrong: %d groups", len(subs))
	}
	if _, err := tr.SplitByGroup(0); err == nil {
		t.Fatal("non-positive group size should be rejected")
	}
}

// TestSplitPreservesEverything: every sub-record is its source record
// re-addressed by its group's base and clamped to the group's end, and
// each group keeps its records in source order.
func TestSplitPreservesEverything(t *testing.T) {
	f := func(seed uint64, groupRaw uint8) bool {
		tr := randomTrace(seed, 300)
		per := 1 + int(groupRaw%8)
		subs, err := tr.SplitByGroup(per)
		if err != nil {
			return false
		}
		next := make([]int, len(subs))
		for _, src := range tr.Records {
			g := int(src.LBA / tr.BlocksPerDisk / int64(per))
			base := int64(g) * int64(per) * tr.BlocksPerDisk
			sub := subs[g]
			want := src
			want.LBA -= base
			if end := int64(sub.NumDisks) * sub.BlocksPerDisk; want.LBA+int64(want.Blocks) > end {
				want.Blocks = int(end - want.LBA)
			}
			if next[g] >= len(sub.Records) || sub.Records[next[g]] != want {
				return false
			}
			next[g]++
		}
		for g, sub := range subs {
			if next[g] != len(sub.Records) || sub.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestSplitSingleGroupSharesRecords: a split into one group that needs no
// clamping shares the parent's records and leaves them unchanged; a record
// running past the end forces a copy, and the clamp lands in the copy.
func TestSplitSingleGroupSharesRecords(t *testing.T) {
	tr := randomTrace(3, 200)
	before := append([]Record(nil), tr.Records...)
	for _, per := range []int{tr.NumDisks, tr.NumDisks + 3} {
		subs, err := tr.SplitByGroup(per)
		if err != nil {
			t.Fatal(err)
		}
		if len(subs) != 1 || subs[0].NumDisks != tr.NumDisks {
			t.Fatalf("per %d: %d groups", per, len(subs))
		}
		if len(subs[0].Records) != len(tr.Records) || &subs[0].Records[0] != &tr.Records[0] {
			t.Fatalf("per %d: one-group split copied the records", per)
		}
	}
	if !reflect.DeepEqual(tr.Records, before) {
		t.Fatal("split changed the parent's records")
	}

	tr = sampleTrace()
	tr.Records[3].Blocks = 3 // LBA 3999: runs two blocks past the end
	subs, err := tr.SplitByGroup(tr.NumDisks)
	if err != nil {
		t.Fatal(err)
	}
	if &subs[0].Records[0] == &tr.Records[0] {
		t.Fatal("a split that clamps must not share the parent's records")
	}
	if got := subs[0].Records[3].Blocks; got != 1 || tr.Records[3].Blocks != 3 {
		t.Fatalf("clamped blocks %d (parent %d), want 1 (parent 3)", got, tr.Records[3].Blocks)
	}
}

// TestSplitRejectsRecordsOutsideSpace: a record that starts outside the
// logical space is an error naming the trace and the record.
func TestSplitRejectsRecordsOutsideSpace(t *testing.T) {
	for _, lba := range []int64{4000, 4999, -1} {
		for _, per := range []int{2, 4} {
			tr := sampleTrace()
			tr.Records[2].LBA = lba
			_, err := tr.SplitByGroup(per)
			if err == nil || !strings.Contains(err.Error(), `"sample"`) || !strings.Contains(err.Error(), "record 2") {
				t.Errorf("LBA %d per %d: got %v, want an error naming trace \"sample\" and record 2", lba, per, err)
			}
		}
	}
}

// TestSplitByGroupAllocBudget: the split allocates the same number of
// times whatever the trace's length (one slab, no per-record growth).
func TestSplitByGroupAllocBudget(t *testing.T) {
	small, large := randomTrace(5, 1000), randomTrace(5, 100000)
	allocs := func(tr *Trace) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := tr.SplitByGroup(3); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := allocs(small), allocs(large); a != b {
		t.Fatalf("split of 1K records allocates %v times, of 100K %v times", a, b)
	}
}

// TestRecordSize: a Record packs into 32 bytes.
func TestRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(Record{}); got != 32 {
		t.Fatalf("Record is %d bytes, want 32", got)
	}
}

func TestTextRoundtrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || got.NumDisks != tr.NumDisks || got.BlocksPerDisk != tr.BlocksPerDisk {
		t.Fatalf("header mismatch: %+v", got)
	}
	if !reflect.DeepEqual(got.Records, tr.Records) {
		t.Fatalf("records mismatch:\n got %v\nwant %v", got.Records, tr.Records)
	}

	// Any whitespace rune in a name is written as '_', not only spaces.
	tr.Name = "tab\tname"
	buf.Reset()
	if err := WriteText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if got, err = ReadText(&buf); err != nil {
		t.Fatalf("tab in the trace name: %v", err)
	}
	if got.Name != "tab_name" {
		t.Fatalf("name %q, want %q", got.Name, "tab_name")
	}
}

func TestBinaryRoundtrip(t *testing.T) {
	f := func(seed uint64) bool {
		tr := randomTrace(seed, 200)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, tr); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got.Records, tr.Records) &&
			got.NumDisks == tr.NumDisks && got.BlocksPerDisk == tr.BlocksPerDisk
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBinarySmallerThanText(t *testing.T) {
	tr := randomTrace(3, 5000)
	var txt, bin bytes.Buffer
	if err := WriteText(&txt, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bin, tr); err != nil {
		t.Fatal(err)
	}
	if bin.Len() >= txt.Len() {
		t.Fatalf("binary (%d) not smaller than text (%d)", bin.Len(), txt.Len())
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := []string{
		"",
		"not a header\n",
		"raidsim-trace v1 x 4\n",                   // missing field
		"raidsim-trace v1 x 4 100\n1 Q 5 1\n",      // bad op
		"raidsim-trace v1 x 4 100\n-5 R 5 1\n",     // negative delta
		"raidsim-trace v1 x 4 100\n1 R 5\n",        // missing field
		"raidsim-trace v1 x 4 100\n1 R 999999 1\n", // out of range
		"raidsim-trace v1 o 1 8\n0 R 9223372036854775807 1\n", // LBA+Blocks overflows
	}
	for i, c := range cases {
		if _, err := ReadText(bytes.NewBufferString(c)); err == nil {
			t.Errorf("case %d parsed", i)
		}
	}
	// Disks x blocks past int64: wrapping to 0 or to 100 blocks.
	for _, c := range []string{
		"raidsim-trace v1 big 4 4611686018427387904\n0 R 5 1\n",
		"raidsim-trace v1 big 4 4611686018427387929\n0 R 5 1\n",
	} {
		_, err := ReadText(bytes.NewBufferString(c))
		if err == nil || !strings.Contains(err.Error(), "shape") {
			t.Errorf("%q: got %v, want a shape error", c, err)
		}
	}
	// Comments and blank lines are fine.
	ok := "raidsim-trace v1 x 4 100\n# comment\n\n1 R 5 1\n"
	tr, err := ReadText(bytes.NewBufferString(ok))
	if err != nil || len(tr.Records) != 1 {
		t.Fatalf("comment handling broken: %v", err)
	}
}

func TestReadBinaryErrors(t *testing.T) {
	if _, err := ReadBinary(bytes.NewBufferString("garbage")); err == nil {
		t.Fatal("garbage parsed as binary trace")
	}
	// Truncated stream.
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-3]
	if _, err := ReadBinary(bytes.NewReader(cut)); err == nil {
		t.Fatal("truncated binary trace parsed")
	}
}

func TestCharacterize(t *testing.T) {
	tr := sampleTrace()
	c := Characterize(tr)
	if c.Accesses != 4 || c.BlocksTransferred != 7 {
		t.Fatalf("accesses %d blocks %d", c.Accesses, c.BlocksTransferred)
	}
	if c.SingleBlockReads != 2 || c.SingleBlockWrites != 1 || c.MultiBlockReads != 0 || c.MultiBlockWrites != 1 {
		t.Fatalf("mix wrong: %+v", c)
	}
	if got := c.WriteFraction(); got != 0.5 {
		t.Fatalf("write fraction %f", got)
	}
	// Per-disk: lba 10 -> disk 0, 1500 -> 1, 2100 -> 2, 3999 -> 3.
	for d := 0; d < 4; d++ {
		if c.PerDiskAccesses[d] != 1 {
			t.Fatalf("disk %d accesses %d", d, c.PerDiskAccesses[d])
		}
	}
	if c.Skew() != 1 {
		t.Fatalf("skew %f, want 1 (uniform)", c.Skew())
	}
	if s := c.String(); len(s) == 0 {
		t.Fatal("empty characterization string")
	}
}

func classedTrace() *Trace {
	tr := sampleTrace()
	tr.Classes = []ClassInfo{
		{Name: "oltp", SLO: SLOGold},
		{Name: "scan", SLO: SLOBatch},
		{Name: "misc", SLO: SLOAuto},
	}
	for i := range tr.Records {
		tr.Records[i].Class = uint8(i % len(tr.Classes))
	}
	return tr
}

func TestClassedTextRoundtrip(t *testing.T) {
	tr := classedTrace()
	tr.Name = "tab\tname"
	tr.Classes[1].Name = "long\tscan"
	var buf bytes.Buffer
	if err := WriteText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("raidsim-trace v2 ")) {
		t.Fatalf("classed trace should write v2, got header %q", bytes.SplitN(buf.Bytes(), []byte("\n"), 2)[0])
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tr.Classes[1].Name = "long_scan" // whitespace runes are written as '_'
	if got.Name != "tab_name" || !reflect.DeepEqual(got.Classes, tr.Classes) {
		t.Fatalf("names mismatch:\n got %q %v\nwant %q %v", got.Name, got.Classes, "tab_name", tr.Classes)
	}
	if !reflect.DeepEqual(got.Records, tr.Records) {
		t.Fatalf("records mismatch:\n got %v\nwant %v", got.Records, tr.Records)
	}
}

func TestClassedBinaryRoundtrip(t *testing.T) {
	tr := classedTrace()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("RSTB2\n")) {
		t.Fatalf("classed trace should write RSTB2, got %q", buf.Bytes()[:6])
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Classes, tr.Classes) {
		t.Fatalf("classes mismatch:\n got %v\nwant %v", got.Classes, tr.Classes)
	}
	if !reflect.DeepEqual(got.Records, tr.Records) {
		t.Fatalf("records mismatch:\n got %v\nwant %v", got.Records, tr.Records)
	}
}

func TestClasslessStaysV1(t *testing.T) {
	tr := sampleTrace()
	var txt, bin bytes.Buffer
	if err := WriteText(&txt, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bin, tr); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(txt.Bytes(), []byte("raidsim-trace v1 ")) {
		t.Fatalf("classless trace should keep v1, got %q", bytes.SplitN(txt.Bytes(), []byte("\n"), 2)[0])
	}
	if !bytes.HasPrefix(bin.Bytes(), []byte("RSTB1\n")) {
		t.Fatalf("classless trace should keep RSTB1, got %q", bin.Bytes()[:6])
	}
}
