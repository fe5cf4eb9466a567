package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzBinaryCodecRoundTrip feeds arbitrary bytes to ReadBinary. Garbage
// must fail cleanly (error, no panic, no runaway allocation); anything
// that decodes must survive an encode/decode round trip unchanged. The
// re-encoded form is also required to be stable: varint framing is not
// canonical, so input bytes may differ from output bytes, but output
// must be a fixed point.
func FuzzBinaryCodecRoundTrip(f *testing.F) {
	// Seed with real encodings so the fuzzer starts past the magic check.
	seeds := []*Trace{
		{Name: "tiny", NumDisks: 2, BlocksPerDisk: 8, Records: []Record{
			{At: 0, Op: Read, LBA: 0, Blocks: 1},
			{At: 10, Op: Write, LBA: 15, Blocks: 1},
		}},
		{Name: "runs", NumDisks: 4, BlocksPerDisk: 100, Records: []Record{
			{At: 5, Op: Write, LBA: 42, Blocks: 4},
			{At: 5, Op: Read, LBA: 3, Blocks: 2},
			{At: 900, Op: Read, LBA: 399, Blocks: 1},
		}},
		{Name: "", NumDisks: 1, BlocksPerDisk: 1},
	}
	for _, t := range seeds {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, t); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("RSTB1\n")) // magic only, truncated header
	f.Add([]byte("not a trace"))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return // rejected input is fine; panics are the bug
		}
		if verr := tr.Validate(); verr != nil {
			t.Fatalf("ReadBinary accepted an invalid trace: %v", verr)
		}
		var out bytes.Buffer
		if err := WriteBinary(&out, tr); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		tr2, err := ReadBinary(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(tr, tr2) {
			t.Fatalf("round trip changed the trace:\n in: %+v\nout: %+v", tr, tr2)
		}
		var out2 bytes.Buffer
		if err := WriteBinary(&out2, tr2); err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(out.Bytes(), out2.Bytes()) {
			t.Fatal("encoding is not a fixed point")
		}
	})
}

// FuzzTextCodecRoundTrip feeds arbitrary text to ReadText. Garbage must
// fail cleanly; anything accepted must pass Validate and survive a
// WriteText/ReadText round trip unchanged, and one re-encode must reach
// a fixed point (the reader accepts variants such as "r", "+5" and
// comment lines that the writer normalizes away).
func FuzzTextCodecRoundTrip(f *testing.F) {
	for _, t := range []*Trace{sampleTrace(), classedTrace()} {
		var buf bytes.Buffer
		if err := WriteText(&buf, t); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	f.Add("raidsim-trace v1 o 1 8\n0 R 9223372036854775807 1\n") // LBA+Blocks overflows
	f.Add("raidsim-trace v1 tab\tname 4 100\n1 R 5 1\n")         // a name holding a tab
	f.Add("raidsim-trace v1 x 4 100\n# comment\n\n+1 r 5 1\n")

	f.Fuzz(func(t *testing.T, data string) {
		tr, err := ReadText(strings.NewReader(data))
		if err != nil {
			return // rejected input is fine; panics are the bug
		}
		if verr := tr.Validate(); verr != nil {
			t.Fatalf("ReadText accepted an invalid trace: %v", verr)
		}
		var out bytes.Buffer
		if err := WriteText(&out, tr); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		tr2, err := ReadText(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-decode failed: %v\n%q", err, out.String())
		}
		if !reflect.DeepEqual(tr, tr2) {
			t.Fatalf("round trip changed the trace:\n in: %+v\nout: %+v", tr, tr2)
		}
		var out2 bytes.Buffer
		if err := WriteText(&out2, tr2); err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(out.Bytes(), out2.Bytes()) {
			t.Fatal("encoding is not a fixed point")
		}
	})
}
