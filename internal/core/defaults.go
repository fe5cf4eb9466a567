package core

import (
	"raidsim/internal/array"
	"raidsim/internal/geom"
	"raidsim/internal/layout"
	"raidsim/internal/sim"
)

// DefaultConfig returns the paper's baseline system configuration
// (Table 4) for an organization: one 10-data-disk array of the default
// drives (Table 1), Disk First parity synchronization, 1-block striping,
// middle-cylinder parity placement, and a 16 MB NV cache size for when
// caching is enabled, which is on where the cache rule requires it (RAID4,
// studied only with parity caching). Adjust fields (DataDisks for the
// 130-disk system, Cached, trace speed, ...) and pass the result to Run.
func DefaultConfig(org array.Org) Config {
	return Config{
		Org:           org,
		DataDisks:     10,
		N:             10,
		Spec:          geom.Default(),
		StripingUnit:  1,
		Placement:     layout.MiddlePlacement,
		Sync:          array.DF,
		CacheMB:       16,
		DestagePeriod: sim.Second,
		Seed:          1,
		Cached:        org.Cache() == array.CacheRequired,
	}
}
