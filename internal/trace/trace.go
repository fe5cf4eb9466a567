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

// Group is one share of a trace split by logical-disk group (Groups): a
// read-only view of the parent's records that start on the group's
// logical disks, in time order, re-addressed to the group's own compact
// logical space as Fill copies them out. The parent must not change while
// a view of it is in use.
type Group struct {
	parent *Trace
	index  int
	disks  int     // logical disks in the group
	base   int64   // the group's first block in the parent's logical space
	end    int64   // the group's capacity in blocks
	n      int     // records in the group
	pos    []int32 // parent positions of the group's records; nil = all, in order
}

// Name names the group after its parent: "<parent>/g<index>".
func (g *Group) Name() string {
	// Concatenated rather than formatted: fmt's buffer pool drops
	// entries at random under the race detector, and the split's
	// allocation count is pinned.
	return g.parent.Name + "/g" + strconv.Itoa(g.index)
}

// Len returns the number of records in the group.
func (g *Group) Len() int { return g.n }

// Classes returns the parent's class table, shared: callers only read it.
func (g *Group) Classes() []ClassInfo { return g.parent.Classes }

// Duration returns the arrival time of the group's last record.
func (g *Group) Duration() sim.Time {
	if g.n == 0 {
		return 0
	}
	last := g.n - 1
	if g.pos != nil {
		last = int(g.pos[last])
	}
	return g.parent.Records[last].At
}

// Fill copies the group's records from position from onwards into dst,
// as many as fit, and returns how many it copied. Each copy is
// re-addressed by the group's base and clamped to the group's end: a
// multiblock request never spans logical disks in the traces we
// generate, but a hand-written trace may run one past the group.
func (g *Group) Fill(dst []Record, from int) int {
	n := min(len(dst), g.n-from)
	if n <= 0 {
		return 0
	}
	// Gather first, then re-address: a loop that only copies keeps more
	// of the scattered reads in flight at once.
	recs := g.parent.Records
	if g.pos == nil {
		copy(dst, recs[from:from+n])
	} else {
		for k, i := range g.pos[from : from+n] {
			dst[k] = recs[i]
		}
	}
	for k := range dst[:n] {
		r := &dst[k]
		r.LBA -= g.base
		if max := g.end - r.LBA; int64(r.Blocks) > max {
			r.Blocks = int(max)
		}
	}
	return n
}

// Groups partitions the records into ngroups views by logical-disk group:
// group g holds logical disks [g*perGroup, (g+1)*perGroup), the last group
// taking any remainder. Each view keeps global timestamps, and Fill
// re-addresses its records to the group's own logical space, which is
// what an independent array simulation consumes. One counting pass
// sizes every group and rejects a record that starts outside the logical
// space; a second pass writes every record's position into one exact-size
// []int32 slab, carved into per-group windows. A single group needs no
// slab: it reads the parent in order.
func (t *Trace) Groups(perGroup int) ([]Group, error) {
	gs, _, err := t.partition(perGroup)
	return gs, err
}

// partition is Groups; it also reports whether a record runs past the
// end of the logical space, which a one-group split must clamp.
func (t *Trace) partition(perGroup int) (gs []Group, pastEnd bool, err error) {
	if perGroup <= 0 {
		return nil, false, fmt.Errorf("trace: group size must be positive, got %d", perGroup)
	}
	ngroups := (t.NumDisks + perGroup - 1) / perGroup
	if ngroups > 1 && len(t.Records) > math.MaxInt32 {
		return nil, false, fmt.Errorf("trace %q: %d records are more than a split can index (%d)", t.Name, len(t.Records), math.MaxInt32)
	}
	total := int64(t.NumDisks) * t.BlocksPerDisk
	span := int64(perGroup) * t.BlocksPerDisk
	counts := make([]int, ngroups)
	for i, r := range t.Records {
		if r.LBA < 0 || r.LBA >= total {
			return nil, false, fmt.Errorf("trace %q: record %d starts at block %d outside [0,%d)", t.Name, i, r.LBA, total)
		}
		counts[r.LBA/span]++
		pastEnd = pastEnd || r.LBA+int64(r.Blocks) > total
	}
	gs = make([]Group, ngroups)
	for g := range gs {
		disks := perGroup
		if g == ngroups-1 {
			disks = t.NumDisks - g*perGroup
		}
		gs[g] = Group{
			parent: t, index: g, disks: disks,
			base: int64(g) * span, end: int64(disks) * t.BlocksPerDisk,
			n: counts[g],
		}
	}
	if ngroups == 1 {
		return gs, pastEnd, nil
	}
	slab := make([]int32, len(t.Records))
	off := 0
	for g, n := range counts {
		gs[g].pos = slab[off : off : off+n]
		off += n
	}
	for i, r := range t.Records {
		g := &gs[r.LBA/span]
		g.pos = append(g.pos, int32(i))
	}
	return gs, pastEnd, nil
}

// SplitByGroup copies each of Groups' views into a sub-trace re-addressed
// to its own compact logical space, the records of all groups sharing one
// exact-size slab. A single group that needs no clamping shares the
// parent's records, as Truncate does: consumers only read them.
func (t *Trace) SplitByGroup(perGroup int) ([]*Trace, error) {
	gs, pastEnd, err := t.partition(perGroup)
	if err != nil {
		return nil, err
	}
	out := make([]*Trace, len(gs))
	for g := range gs {
		out[g] = &Trace{
			Name:          gs[g].Name(),
			NumDisks:      gs[g].disks,
			BlocksPerDisk: t.BlocksPerDisk,
			Classes:       copyClasses(t.Classes),
		}
	}
	if len(gs) == 1 && !pastEnd {
		out[0].Records = t.Records
		return out, nil
	}
	slab := make([]Record, len(t.Records))
	off := 0
	for g := range gs {
		n := gs[g].Fill(slab[off:], 0)
		out[g].Records = slab[off : off+n : off+n]
		off += n
	}
	return out, nil
}
