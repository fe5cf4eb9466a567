package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"raidsim/internal/sim"
)

// Text format: a header line followed by one record per line.
//
//	raidsim-trace v1 <name> <numDisks> <blocksPerDisk>
//	<deltaNanos> <R|W> <lba> <blocks>
//
// Deltas are relative to the previous record (0 within a burst), matching
// how the paper's traces encode time. Nanosecond units keep file
// round-trips bit-exact with in-memory traces.
//
// Version 2 carries the client-class table of multi-client traces: the
// header gains a class count, one "class <name> <slo>" line per class
// follows it, and each record line gains a trailing class index.
// Classless traces are still written as v1, so every file produced before
// classes existed — and every consumer of such files — is unaffected.
//
//	raidsim-trace v2 <name> <numDisks> <blocksPerDisk> <numClasses>
//	class <name> <gold|batch|auto>
//	<deltaNanos> <R|W> <lba> <blocks> <class>

// WriteText encodes t in the text format (v1 when classless, v2 when the
// trace carries a class table).
func WriteText(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	name := sanitizeName(t.Name)
	if len(t.Classes) == 0 {
		if _, err := fmt.Fprintf(bw, "raidsim-trace v1 %s %d %d\n", name, t.NumDisks, t.BlocksPerDisk); err != nil {
			return err
		}
	} else {
		if _, err := fmt.Fprintf(bw, "raidsim-trace v2 %s %d %d %d\n", name, t.NumDisks, t.BlocksPerDisk, len(t.Classes)); err != nil {
			return err
		}
		for _, c := range t.Classes {
			if _, err := fmt.Fprintf(bw, "class %s %s\n", sanitizeName(c.Name), SLOName(c.SLO)); err != nil {
				return err
			}
		}
	}
	var prev sim.Time
	for _, r := range t.Records {
		delta := r.At - prev
		prev = r.At
		var err error
		if len(t.Classes) == 0 {
			_, err = fmt.Fprintf(bw, "%d %s %d %d\n", delta, r.Op, r.LBA, r.Blocks)
		} else {
			_, err = fmt.Fprintf(bw, "%d %s %d %d %d\n", delta, r.Op, r.LBA, r.Blocks, r.Class)
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// sanitizeName makes a name single-token for the whitespace-separated
// text format: ReadText splits on every rune unicode.IsSpace reports.
// Other bytes pass through unchanged, invalid UTF-8 included, so a name
// ReadText accepted is written back as it was read.
func sanitizeName(s string) string {
	var b strings.Builder
	for len(s) > 0 {
		r, n := utf8.DecodeRuneInString(s)
		if unicode.IsSpace(r) {
			b.WriteByte('_')
		} else {
			b.WriteString(s[:n])
		}
		s = s[n:]
	}
	if b.Len() == 0 {
		return "unnamed"
	}
	return b.String()
}

// ReadText decodes a text-format trace.
func ReadText(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("trace: empty input: %w", sc.Err())
	}
	head := strings.Fields(sc.Text())
	v2 := false
	switch {
	case len(head) == 5 && head[0] == "raidsim-trace" && head[1] == "v1":
	case len(head) == 6 && head[0] == "raidsim-trace" && head[1] == "v2":
		v2 = true
	default:
		return nil, fmt.Errorf("trace: bad header %q", sc.Text())
	}
	nd, err := strconv.Atoi(head[3])
	if err != nil {
		return nil, fmt.Errorf("trace: bad disk count: %w", err)
	}
	bpd, err := strconv.ParseInt(head[4], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("trace: bad blocks per disk: %w", err)
	}
	t := &Trace{Name: head[2], NumDisks: nd, BlocksPerDisk: bpd}
	line := 1
	if v2 {
		nclasses, err := strconv.Atoi(head[5])
		if err != nil || nclasses < 1 || nclasses > 256 {
			return nil, fmt.Errorf("trace: bad class count %q", head[5])
		}
		for i := 0; i < nclasses; i++ {
			if !sc.Scan() {
				return nil, fmt.Errorf("trace: truncated class table: %w", sc.Err())
			}
			line++
			f := strings.Fields(sc.Text())
			if len(f) != 3 || f[0] != "class" {
				return nil, fmt.Errorf("trace: line %d: bad class line %q", line, sc.Text())
			}
			slo, err := ParseSLO(f[2])
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: %w", line, err)
			}
			t.Classes = append(t.Classes, ClassInfo{Name: f[1], SLO: slo})
		}
	}
	nfields := 4
	if v2 {
		nfields = 5
	}
	var at sim.Time
	for sc.Scan() {
		line++
		txt := strings.TrimSpace(sc.Text())
		if txt == "" || strings.HasPrefix(txt, "#") {
			continue
		}
		f := strings.Fields(txt)
		if len(f) != nfields {
			return nil, fmt.Errorf("trace: line %d: want %d fields, got %d", line, nfields, len(f))
		}
		delta, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil || delta < 0 {
			return nil, fmt.Errorf("trace: line %d: bad delta %q", line, f[0])
		}
		var op Op
		switch f[1] {
		case "R", "r":
			op = Read
		case "W", "w":
			op = Write
		default:
			return nil, fmt.Errorf("trace: line %d: bad op %q", line, f[1])
		}
		lba, err := strconv.ParseInt(f[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad lba %q", line, f[2])
		}
		blocks, err := strconv.Atoi(f[3])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad block count %q", line, f[3])
		}
		var class uint64
		if v2 {
			class, err = strconv.ParseUint(f[4], 10, 8)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: bad class %q", line, f[4])
			}
		}
		at += sim.Time(delta)
		t.Records = append(t.Records, Record{At: at, Op: op, LBA: lba, Blocks: blocks, Class: uint8(class)})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// Binary format: magic, uvarint-framed header, then per record
// uvarint(deltaNanos), byte(op), uvarint(lba delta zig-zag), uvarint(blocks).
// It is several times smaller than text and much faster to parse.
//
// RSTB2 extends RSTB1 with the client-class table: after the record count
// come uvarint(numClasses) class entries (uvarint name length, name
// bytes, one SLO byte), and every record gains a trailing class byte.
// Classless traces are still written as RSTB1.

var (
	binMagic   = []byte("RSTB1\n")
	binMagicV2 = []byte("RSTB2\n")
)

// WriteBinary encodes t in the compact binary format (RSTB1 when
// classless, RSTB2 when the trace carries a class table).
func WriteBinary(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	v2 := len(t.Classes) > 0
	magic := binMagic
	if v2 {
		magic = binMagicV2
	}
	if _, err := bw.Write(magic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	put := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	name := []byte(t.Name)
	if err := put(uint64(len(name))); err != nil {
		return err
	}
	if _, err := bw.Write(name); err != nil {
		return err
	}
	if err := put(uint64(t.NumDisks)); err != nil {
		return err
	}
	if err := put(uint64(t.BlocksPerDisk)); err != nil {
		return err
	}
	if err := put(uint64(len(t.Records))); err != nil {
		return err
	}
	if v2 {
		if err := put(uint64(len(t.Classes))); err != nil {
			return err
		}
		for _, c := range t.Classes {
			cn := []byte(c.Name)
			if err := put(uint64(len(cn))); err != nil {
				return err
			}
			if _, err := bw.Write(cn); err != nil {
				return err
			}
			if err := bw.WriteByte(c.SLO); err != nil {
				return err
			}
		}
	}
	var prevAt sim.Time
	var prevLBA int64
	for _, r := range t.Records {
		if err := put(uint64(r.At - prevAt)); err != nil {
			return err
		}
		prevAt = r.At
		if err := bw.WriteByte(byte(r.Op)); err != nil {
			return err
		}
		d := r.LBA - prevLBA
		prevLBA = r.LBA
		if err := put(zigzag(d)); err != nil {
			return err
		}
		if err := put(uint64(r.Blocks)); err != nil {
			return err
		}
		if v2 {
			if err := bw.WriteByte(r.Class); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadBinary decodes a binary-format trace (RSTB1 or RSTB2).
func ReadBinary(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(binMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: binary magic: %w", err)
	}
	v2 := false
	switch string(magic) {
	case string(binMagic):
	case string(binMagicV2):
		v2 = true
	default:
		return nil, fmt.Errorf("trace: not a raidsim binary trace")
	}
	get := func() (uint64, error) { return binary.ReadUvarint(br) }
	nameLen, err := get()
	if err != nil {
		return nil, fmt.Errorf("trace: name length: %w", err)
	}
	if nameLen > 1<<16 {
		return nil, fmt.Errorf("trace: unreasonable name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("trace: name: %w", err)
	}
	nd, err := get()
	if err != nil {
		return nil, fmt.Errorf("trace: disk count: %w", err)
	}
	bpd, err := get()
	if err != nil {
		return nil, fmt.Errorf("trace: blocks per disk: %w", err)
	}
	count, err := get()
	if err != nil {
		return nil, fmt.Errorf("trace: record count: %w", err)
	}
	if count > 1<<31 {
		return nil, fmt.Errorf("trace: unreasonable record count %d", count)
	}
	// The declared count bounds the decode loop, but a hostile header can
	// claim 2^31 records with no payload behind it — cap the preallocation
	// hint so that costs an EOF error, not a multi-GiB allocation. append
	// grows the slice normally for genuinely large traces.
	capHint := count
	if capHint > 1<<16 {
		capHint = 1 << 16
	}
	t := &Trace{
		Name:          string(name),
		NumDisks:      int(nd),
		BlocksPerDisk: int64(bpd),
		Records:       make([]Record, 0, capHint),
	}
	if v2 {
		nclasses, err := get()
		if err != nil {
			return nil, fmt.Errorf("trace: class count: %w", err)
		}
		if nclasses < 1 || nclasses > 256 {
			return nil, fmt.Errorf("trace: unreasonable class count %d", nclasses)
		}
		for i := uint64(0); i < nclasses; i++ {
			cl, err := get()
			if err != nil {
				return nil, fmt.Errorf("trace: class %d name length: %w", i, err)
			}
			if cl > 1<<12 {
				return nil, fmt.Errorf("trace: unreasonable class name length %d", cl)
			}
			cn := make([]byte, cl)
			if _, err := io.ReadFull(br, cn); err != nil {
				return nil, fmt.Errorf("trace: class %d name: %w", i, err)
			}
			slo, err := br.ReadByte()
			if err != nil {
				return nil, fmt.Errorf("trace: class %d slo: %w", i, err)
			}
			t.Classes = append(t.Classes, ClassInfo{Name: string(cn), SLO: slo})
		}
	}
	var at sim.Time
	var lba int64
	for i := uint64(0); i < count; i++ {
		delta, err := get()
		if err != nil {
			return nil, fmt.Errorf("trace: record %d delta: %w", i, err)
		}
		opb, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("trace: record %d op: %w", i, err)
		}
		if opb > 1 {
			return nil, fmt.Errorf("trace: record %d: bad op %d", i, opb)
		}
		ld, err := get()
		if err != nil {
			return nil, fmt.Errorf("trace: record %d lba: %w", i, err)
		}
		blocks, err := get()
		if err != nil {
			return nil, fmt.Errorf("trace: record %d blocks: %w", i, err)
		}
		var class byte
		if v2 {
			class, err = br.ReadByte()
			if err != nil {
				return nil, fmt.Errorf("trace: record %d class: %w", i, err)
			}
		}
		at += sim.Time(delta)
		lba += unzigzag(ld)
		t.Records = append(t.Records, Record{At: at, Op: Op(opb), LBA: lba, Blocks: int(blocks), Class: class})
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// ReadFile decodes the trace file at path in whichever format it holds:
// a file opening with a binary magic (RSTB1 or RSTB2) is decoded as
// binary, any other as text.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	// A short or failed Peek matches no magic; ReadText reports it.
	head, _ := br.Peek(len(binMagic))
	if bytes.Equal(head, binMagic) || bytes.Equal(head, binMagicV2) {
		return ReadBinary(br)
	}
	return ReadText(br)
}

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
