// Package shard provides the deterministic sharding primitives every
// parallel loop in the repository shares: a bounded, work-stealing
// worker pool that maps a function over an index range (MapStats), and a
// stable per-run seed derivation (SeedFor). The package is
// dependency-free so that low-level layers can use the same pool as the
// top-level internal/campaign runner without import cycles: the per-run
// array executor in internal/core and the Monte-Carlo MTTDL campaign in
// internal/fault both run on MapStats.
//
// Determinism contract: MapStats gives no ordering guarantees between
// invocations of fn, so fn must write its result into an index-addressed
// slot and leave every reduction (sums, mins, merges) to the caller, who
// performs it in index order after MapStats returns. That keeps
// floating-point accumulation order — and therefore every output bit —
// independent of the worker count.
//
// The pool is spawned even for one worker. Running the tasks inline on
// the caller's goroutine instead measured slower, with a larger peak
// RSS, on the fleet campaign benchmark, where most runs are a single
// array executed by core on a campaign worker's goroutine.
package shard

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
	mix1      = 0xbf58476d1ce4e5b9
	mix2      = 0x94d049bb133111eb
)

// SeedFor derives the simulation seed of one campaign run from the
// campaign's base seed and the run's stable ID. Keying on the ID — not
// the run's position in the expanded grid — means growing or reordering
// the grid never changes the seed (and hence the results) of any
// existing run, which is what makes journals resumable across spec
// edits. The derivation is FNV-1a over the ID finalized through a
// splitmix64-style mix with the base seed.
func SeedFor(base uint64, id string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= fnvPrime
	}
	z := h + base*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * mix1
	z = (z ^ (z >> 27)) * mix2
	z ^= z >> 31
	if z == 0 {
		// Seed 0 means "unset" to several config layers; nudge away.
		z = 0x9e3779b97f4a7c15
	}
	return z
}
