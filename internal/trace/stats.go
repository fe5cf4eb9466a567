package trace

import (
	"fmt"
	"strings"

	"raidsim/internal/sim"
)

// Characteristics summarizes a trace in the shape of the paper's Table 2.
type Characteristics struct {
	Name              string
	Duration          sim.Time
	NumDisks          int
	Accesses          int64
	BlocksTransferred int64
	SingleBlockReads  int64
	SingleBlockWrites int64
	MultiBlockReads   int64
	MultiBlockWrites  int64
	PerDiskAccesses   []int64
}

// Characterize computes Table 2-style statistics for a trace.
func Characterize(t *Trace) Characteristics {
	c := Characteristics{
		Name:            t.Name,
		Duration:        t.Duration(),
		NumDisks:        t.NumDisks,
		PerDiskAccesses: make([]int64, t.NumDisks),
	}
	for _, r := range t.Records {
		c.Accesses++
		c.BlocksTransferred += int64(r.Blocks)
		switch {
		case r.Blocks == 1 && r.Op == Read:
			c.SingleBlockReads++
		case r.Blocks == 1:
			c.SingleBlockWrites++
		case r.Op == Read:
			c.MultiBlockReads++
		default:
			c.MultiBlockWrites++
		}
		c.PerDiskAccesses[t.Disk(r)]++
	}
	return c
}

// WriteFraction returns the fraction of requests that are writes.
func (c Characteristics) WriteFraction() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.SingleBlockWrites+c.MultiBlockWrites) / float64(c.Accesses)
}

// Skew returns the peak-to-mean ratio of per-disk access counts, a simple
// measure of the disk access skew the paper discusses.
func (c Characteristics) Skew() float64 {
	if len(c.PerDiskAccesses) == 0 || c.Accesses == 0 {
		return 0
	}
	var max int64
	for _, n := range c.PerDiskAccesses {
		if n > max {
			max = n
		}
	}
	mean := float64(c.Accesses) / float64(len(c.PerDiskAccesses))
	return float64(max) / mean
}

// String renders the characteristics as a Table 2-style block.
func (c Characteristics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Trace: %s\n", c.Name)
	fmt.Fprintf(&b, "  Duration:                %s\n", fmtDuration(c.Duration))
	fmt.Fprintf(&b, "  # of disks:              %d\n", c.NumDisks)
	fmt.Fprintf(&b, "  # of I/O accesses:       %d\n", c.Accesses)
	fmt.Fprintf(&b, "  # of blocks transferred: %d\n", c.BlocksTransferred)
	fmt.Fprintf(&b, "  # of single block reads: %d\n", c.SingleBlockReads)
	fmt.Fprintf(&b, "  # of single block writes:%d\n", c.SingleBlockWrites)
	fmt.Fprintf(&b, "  # of multiblock reads:   %d\n", c.MultiBlockReads)
	fmt.Fprintf(&b, "  # of multiblock writes:  %d\n", c.MultiBlockWrites)
	fmt.Fprintf(&b, "  write fraction:          %.3f\n", c.WriteFraction())
	fmt.Fprintf(&b, "  disk access skew (pk/mn):%.2f\n", c.Skew())
	return b.String()
}

func fmtDuration(t sim.Time) string {
	secs := t / sim.Second
	h := secs / 3600
	m := (secs % 3600) / 60
	s := secs % 60
	if h > 0 {
		return fmt.Sprintf("%dh %dmin %ds", h, m, s)
	}
	return fmt.Sprintf("%dmin %ds", m, s)
}
