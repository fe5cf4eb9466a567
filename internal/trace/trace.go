// Package trace defines the I/O trace model the simulator replays. A
// trace is a time-ordered sequence of block-level requests against a set
// of logical data disks, in the format the paper describes (section 3.1):
// block address, read/write flag, time since the previous request, with
// multiblock requests carried as a block count.
package trace

import (
	"fmt"
	"math"
	"strconv"

	"raidsim/internal/sim"
)

// Op distinguishes reads from writes.
type Op uint8

// Request operations.
const (
	Read Op = iota
	Write
)

func (o Op) String() string {
	if o == Write {
		return "W"
	}
	return "R"
}

// Record is one logical I/O request. LBA addresses a flat logical block
// space of NumDisks * BlocksPerDisk blocks: logical disk d holds blocks
// [d*BlocksPerDisk, (d+1)*BlocksPerDisk). At is the absolute arrival time
// from the start of the trace.
//
// The fields are ordered largest first so a Record packs into 32 bytes.
type Record struct {
	At     sim.Time
	LBA    int64
	Blocks int
	Op     Op
	// Class indexes the trace's Classes table (the client class that
	// issued this request). Always 0 for classless traces.
	Class uint8
}

// SLO codes a class's service-level objective in the class table. The
// codes mirror array.SLOClass (which this package cannot import) plus
// SLOAuto, the classless default: classify each request by its size, as
// the simulator always did before client classes existed.
const (
	SLOGold  uint8 = 0
	SLOBatch uint8 = 1
	SLOAuto  uint8 = 2
)

// SLOName renders an SLO code for reports and spec files.
func SLOName(s uint8) string {
	switch s {
	case SLOGold:
		return "gold"
	case SLOBatch:
		return "batch"
	case SLOAuto:
		return "auto"
	}
	return fmt.Sprintf("slo(%d)", s)
}

// ParseSLO reads a spec-file SLO name ("" = auto).
func ParseSLO(s string) (uint8, error) {
	switch s {
	case "gold":
		return SLOGold, nil
	case "batch":
		return SLOBatch, nil
	case "auto", "":
		return SLOAuto, nil
	}
	return 0, fmt.Errorf("trace: unknown slo %q (want gold, batch, or auto)", s)
}

// ClassInfo describes one client class of a multi-client trace.
type ClassInfo struct {
	Name string
	SLO  uint8 // SLOGold, SLOBatch, or SLOAuto
}

// Trace bundles records with the logical configuration they address.
// Classes, when non-nil, is the client-class table Record.Class indexes;
// a nil table means the trace is classless (every record Class 0) and
// the simulator behaves exactly as before client classes existed.
type Trace struct {
	Name          string
	NumDisks      int
	BlocksPerDisk int64
	Classes       []ClassInfo
	Records       []Record
}

// Validate checks internal consistency: ordering, bounds, positive sizes.
func (t *Trace) Validate() error {
	if t.NumDisks <= 0 || t.BlocksPerDisk <= 0 {
		return fmt.Errorf("trace %q: bad shape %d disks x %d blocks", t.Name, t.NumDisks, t.BlocksPerDisk)
	}
	if t.BlocksPerDisk > math.MaxInt64/int64(t.NumDisks) {
		return fmt.Errorf("trace %q: shape %d disks x %d blocks overflows int64", t.Name, t.NumDisks, t.BlocksPerDisk)
	}
	for i, c := range t.Classes {
		if c.SLO > SLOAuto {
			return fmt.Errorf("trace %q: class %d (%s) has bad SLO code %d", t.Name, i, c.Name, c.SLO)
		}
	}
	total := int64(t.NumDisks) * t.BlocksPerDisk
	nclasses := len(t.Classes)
	var prev sim.Time
	for i, r := range t.Records {
		if r.At < prev {
			return fmt.Errorf("trace %q: record %d goes back in time (%d < %d)", t.Name, i, r.At, prev)
		}
		prev = r.At
		if r.Blocks <= 0 {
			return fmt.Errorf("trace %q: record %d has %d blocks", t.Name, i, r.Blocks)
		}
		// LBA+Blocks could overflow; compare against total-Blocks instead.
		if r.LBA < 0 || r.LBA > total-int64(r.Blocks) {
			return fmt.Errorf("trace %q: record %d (%d blocks at LBA %d) falls outside [0,%d)", t.Name, i, r.Blocks, r.LBA, total)
		}
		if nclasses > 0 && int(r.Class) >= nclasses {
			return fmt.Errorf("trace %q: record %d has class %d outside the %d-entry class table", t.Name, i, r.Class, nclasses)
		}
		if nclasses == 0 && r.Class != 0 {
			return fmt.Errorf("trace %q: record %d has class %d but the trace has no class table", t.Name, i, r.Class)
		}
	}
	return nil
}

// copyClasses duplicates the class table so derived traces never alias it.
func copyClasses(cs []ClassInfo) []ClassInfo {
	if cs == nil {
		return nil
	}
	return append([]ClassInfo(nil), cs...)
}

// Duration returns the arrival time of the last record.
func (t *Trace) Duration() sim.Time {
	if len(t.Records) == 0 {
		return 0
	}
	return t.Records[len(t.Records)-1].At
}

// Disk returns the logical disk a record starts on.
func (t *Trace) Disk(r Record) int { return int(r.LBA / t.BlocksPerDisk) }

// Scale returns a copy with arrival times divided by speed: speed 2 packs
// the same requests into half the time (the paper's "trace speed 2").
// The request stream itself is unchanged.
func (t *Trace) Scale(speed float64) (*Trace, error) {
	if speed <= 0 {
		return nil, fmt.Errorf("trace: speed must be positive, got %g", speed)
	}
	out := &Trace{
		Name:          fmt.Sprintf("%s@%gx", t.Name, speed),
		NumDisks:      t.NumDisks,
		BlocksPerDisk: t.BlocksPerDisk,
		Classes:       copyClasses(t.Classes),
		Records:       make([]Record, len(t.Records)),
	}
	for i, r := range t.Records {
		r.At = sim.Time(float64(r.At) / speed)
		out.Records[i] = r
	}
	return out, nil
}

// Truncate returns a copy containing at most n records.
func (t *Trace) Truncate(n int) *Trace {
	if n >= len(t.Records) {
		return t
	}
	out := *t
	out.Records = t.Records[:n]
	return &out
}

// SplitByGroup partitions records into ngroups sub-traces by logical-disk
// group: group g holds logical disks [g*perGroup, (g+1)*perGroup), the
// last group taking any remainder. Each sub-trace keeps global timestamps
// and is re-addressed to its own compact logical space, which is what an
// independent array simulation consumes. One counting pass sizes every
// group and rejects a record that starts outside the logical space; the
// records then fill one exact-size slab, carved into per-group windows.
// A single group that needs no clamping shares the parent's records, as
// Truncate does: consumers only read them.
func (t *Trace) SplitByGroup(perGroup int) ([]*Trace, error) {
	if perGroup <= 0 {
		return nil, fmt.Errorf("trace: group size must be positive, got %d", perGroup)
	}
	ngroups := (t.NumDisks + perGroup - 1) / perGroup
	out := make([]*Trace, ngroups)
	for g := range out {
		disks := perGroup
		if g == ngroups-1 {
			disks = t.NumDisks - g*perGroup
		}
		// Concatenated rather than formatted: fmt's buffer pool drops
		// entries at random under the race detector, and the split's
		// allocation count is pinned.
		out[g] = &Trace{
			Name:          t.Name + "/g" + strconv.Itoa(g),
			NumDisks:      disks,
			BlocksPerDisk: t.BlocksPerDisk,
			Classes:       copyClasses(t.Classes),
		}
	}
	total := int64(t.NumDisks) * t.BlocksPerDisk
	span := int64(perGroup) * t.BlocksPerDisk
	counts := make([]int, ngroups)
	pastEnd := false
	for i, r := range t.Records {
		if r.LBA < 0 || r.LBA >= total {
			return nil, fmt.Errorf("trace %q: record %d starts at block %d outside [0,%d)", t.Name, i, r.LBA, total)
		}
		counts[r.LBA/span]++
		pastEnd = pastEnd || r.LBA+int64(r.Blocks) > total
	}
	if ngroups == 1 && !pastEnd {
		out[0].Records = t.Records
		return out, nil
	}
	slab := make([]Record, len(t.Records))
	off := 0
	for g, n := range counts {
		out[g].Records = slab[off : off : off+n]
		off += n
	}
	for _, r := range t.Records {
		g := r.LBA / span
		r.LBA -= g * span
		// A multiblock request never spans logical disks in the traces we
		// generate; clamp defensively in case a hand-written trace does.
		sub := out[g]
		if max := int64(sub.NumDisks)*sub.BlocksPerDisk - r.LBA; int64(r.Blocks) > max {
			r.Blocks = int(max)
		}
		sub.Records = append(sub.Records, r)
	}
	return out, nil
}
