package array

import (
	"fmt"
	"slices"
	"strings"
)

// Org selects the array organization.
type Org int

// Organizations under study (Table 3 of the paper), plus the RAID0 and
// RAID3 comparators from the related work (Chen et al.) and the RAID1/0
// striped-mirror extension. orgTable holds what defines each one.
const (
	OrgBase Org = iota
	OrgMirror
	OrgRAID5
	OrgRAID4
	OrgParityStriping
	OrgRAID0
	OrgRAID3
	OrgParityLog
	OrgRAID10
)

// Redundancy is how an organization protects its data; it fixes the
// drive count of an array of n data disks (Table 3).
type Redundancy int

const (
	NoRedundancy Redundancy = iota // n drives
	Mirrored                       // 2n drives: every block has a twin
	Parity                         // n+1 drives: one parity block per stripe
)

// CacheRule says whether an organization runs behind the NV cache.
type CacheRule int

const (
	CacheOptional CacheRule = iota
	CacheRequired           // RAID4: the paper studies it only with parity caching
	CacheNever              // the comparators (parity logging's log plays the cache's role)
)

// Setting is a group of configuration fields only some organizations
// read; Org.Reads says which.
type Setting int

const (
	ReadsStripingUnit Setting = 1 << iota // StripingUnit
	ReadsParityLayout                     // Placement, ParityStripeUnit
	ReadsSync                             // Sync
	ReadsSpindleSync                      // SyncSpindles
	ReadsHedging                          // Robust.HedgeAfter, Robust.HedgeQuantile
	ReadsFaults                           // the degraded-mode model: Fault but CacheFailAt, Spares
	// ReadsRebuild (RebuildChunk, RebuildPause) needs a degraded-mode
	// model and redundancy to rebuild from; ReadsCache (Cached) needs a
	// cache rule other than CacheNever. The cache's own fields are read
	// only when Cached is set. Both are derived, not listed in rows.
	ReadsRebuild
	ReadsCache
)

// orgRow holds every fact that defines one organization.
type orgRow struct {
	org      Org
	names    []string // canonical name first, then the aliases ParseOrg accepts
	red      Redundancy
	cache    CacheRule
	reads    Setting
	lockstep bool // spindles always synchronized, whatever SyncSpindles says
}

const degradable = ReadsSpindleSync | ReadsFaults

// orgTable is in OrgNames order.
var orgTable = []orgRow{
	{OrgBase, []string{"base", "jbod"}, NoRedundancy, CacheOptional, degradable, false},
	{OrgMirror, []string{"mirror", "mirrored", "raid1"}, Mirrored, CacheOptional, degradable | ReadsHedging, false},
	{OrgRAID10, []string{"raid10", "raid1+0", "raid1/0", "stripedmirror", "striped-mirror"}, Mirrored, CacheOptional,
		degradable | ReadsHedging | ReadsStripingUnit, false},
	{OrgRAID5, []string{"raid5"}, Parity, CacheOptional, degradable | ReadsStripingUnit | ReadsSync, false},
	{OrgRAID4, []string{"raid4"}, Parity, CacheRequired, degradable | ReadsStripingUnit, false},
	{OrgParityStriping, []string{"pstripe", "paritystriping", "parity-striping"}, Parity, CacheOptional,
		degradable | ReadsParityLayout | ReadsSync, false},
	{OrgRAID0, []string{"raid0"}, NoRedundancy, CacheOptional, degradable | ReadsStripingUnit, false},
	{OrgRAID3, []string{"raid3"}, Parity, CacheNever, 0, true},
	{OrgParityLog, []string{"plog", "paritylog", "parity-logging"}, Parity, CacheNever, ReadsSpindleSync | ReadsStripingUnit, false},
}

// row returns o's row; an unknown Org's has org -1 and reads nothing.
func (o Org) row() orgRow {
	for _, r := range orgTable {
		if r.org == o {
			return r
		}
	}
	return orgRow{org: -1, names: []string{fmt.Sprintf("org(%d)", int(o))}}
}

func (o Org) String() string { return o.row().names[0] }

// Redundancy returns how o protects its data.
func (o Org) Redundancy() Redundancy { return o.row().red }

// Cache returns whether o runs behind the NV cache.
func (o Org) Cache() CacheRule { return o.row().cache }

// Width returns the drive count of an array of o holding n data disks.
func (o Org) Width(n int) int { return [...]int{n, 2 * n, n + 1}[o.row().red] }

// Reads reports whether o reads the setting group s.
func (o Org) Reads(s Setting) bool {
	r := o.row()
	switch s {
	case ReadsCache:
		return r.cache != CacheNever
	case ReadsRebuild:
		return r.reads&ReadsFaults != 0 && r.red != NoRedundancy
	}
	return r.reads&s != 0
}

// OrgNames lists the canonical organization names ParseOrg accepts.
func OrgNames() []string {
	out := make([]string, len(orgTable))
	for i, r := range orgTable {
		out[i] = r.names[0]
	}
	return out
}

// ParseOrg converts a name to an Org. Matching is case-insensitive and
// accepts common aliases (raid1, raid1+0, parity-striping, ...).
func ParseOrg(s string) (Org, error) {
	key := strings.ToLower(strings.TrimSpace(s))
	for _, r := range orgTable {
		if slices.Contains(r.names, key) {
			return r.org, nil
		}
	}
	return 0, fmt.Errorf("array: unknown organization %q (valid: %s)", s, strings.Join(OrgNames(), ", "))
}

// checkOrg rejects an unknown organization, an uncached RAID4, a cached
// comparator, and faults on an organization without a degraded-mode model.
func (c *Config) checkOrg() error {
	r := c.Org.row()
	switch {
	case r.org != c.Org:
		return fmt.Errorf("array: unknown organization %v", c.Org)
	case r.cache == CacheRequired && !c.Cached:
		return fmt.Errorf("array: %v is only studied with parity caching; set Cached", c.Org)
	case r.cache == CacheNever && c.Cached:
		return fmt.Errorf("array: the %v comparator is modeled non-cached only", c.Org)
	case r.reads&ReadsFaults == 0 && (c.Fault.Enabled() || c.Spares > 0):
		return fmt.Errorf("array: %v has no degraded-mode model; fault injection is unsupported", c.Org)
	}
	return nil
}
