// Package recovery simulates a parity array operating degraded (one disk
// failed) and rebuilding onto a replacement — the paper's remark that
// "large arrays ... have worse performance during reconstruction
// following a disk failure" (section 4.2.1), quantified.
//
// Degraded semantics follow the standard RAID rules the functional store
// (package blockdev) validates:
//
//   - read of a failed block: read the stripe's N-1 surviving members
//     plus parity and XOR them — N reads fan out across the survivors;
//   - write to a failed block: read the surviving members, then write
//     the new parity (the data itself cannot be stored);
//   - write whose parity disk failed: write the data only;
//   - otherwise the normal read-modify-write pair.
//
// The rebuild process sweeps the replacement disk in chunks: each chunk
// reads the corresponding blocks from every survivor and writes the
// reconstruction, at background priority, with a configurable pause
// between chunks to throttle its interference.
package recovery

import (
	"fmt"

	"raidsim/internal/disk"
	"raidsim/internal/geom"
	"raidsim/internal/layout"
	"raidsim/internal/rng"
	"raidsim/internal/sim"
	"raidsim/internal/stats"
	"raidsim/internal/trace"
)

// Config describes the degraded array.
type Config struct {
	N            int
	Spec         geom.Spec
	StripingUnit int
	FailedDisk   int
	// Rebuild, when true, starts a rebuild sweep at RebuildStart.
	Rebuild      bool
	RebuildStart sim.Time
	RebuildChunk int      // blocks per rebuild I/O (default 48)
	RebuildPause sim.Time // idle gap between chunks (default 0)
	Seed         uint64
}

// Results reports what the degraded simulation measured.
type Results struct {
	Requests      int64
	Resp          stats.Summary // all foreground requests, ms
	DegradedResp  stats.Summary // requests that needed reconstruction
	NormalResp    stats.Summary
	RebuildDone   bool
	RebuildTime   sim.Time // from RebuildStart to completion
	RebuildChunks int64
}

// Sim is a degraded-mode array simulation.
type Sim struct {
	eng   *sim.Engine
	cfg   Config
	lay   layout.ParityLayout
	disks []*disk.Disk

	inflight int
	failed   int
	rebuilt  bool

	res Results
}

// New builds the simulation. The array is RAID5 with the given striping
// unit; FailedDisk is failed from time zero.
func New(eng *sim.Engine, cfg Config) (*Sim, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("recovery: N must be >= 2")
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.StripingUnit <= 0 {
		cfg.StripingUnit = 1
	}
	lay := layout.NewRAID5(cfg.N, cfg.Spec.BlocksPerDisk(), cfg.StripingUnit)
	// FailedDisk == -1 simulates a healthy array (baseline).
	if cfg.FailedDisk < -1 || cfg.FailedDisk >= lay.Disks() {
		return nil, fmt.Errorf("recovery: failed disk %d out of range", cfg.FailedDisk)
	}
	if cfg.FailedDisk == -1 {
		cfg.Rebuild = false
	}
	if cfg.RebuildChunk <= 0 {
		cfg.RebuildChunk = 48
	}
	seek, err := geom.CalibrateSeek(cfg.Spec)
	if err != nil {
		return nil, err
	}
	src := rng.New(cfg.Seed + 0xdead)
	s := &Sim{eng: eng, cfg: cfg, lay: lay, failed: cfg.FailedDisk}
	s.disks = make([]*disk.Disk, lay.Disks())
	for i := range s.disks {
		s.disks[i], err = disk.New(eng, i, cfg.Spec, seek, src.Float64())
		if err != nil {
			return nil, err
		}
	}
	if cfg.Rebuild {
		eng.At(cfg.RebuildStart, func() { s.rebuildChunk(0) })
	}
	return s, nil
}

// DataBlocks returns the array's logical capacity.
func (s *Sim) DataBlocks() int64 { return s.lay.DataBlocks() }

// Drained reports whether all foreground requests completed.
func (s *Sim) Drained() bool { return s.inflight == 0 }

// Results snapshots the measurements.
func (s *Sim) Results() *Results {
	r := s.res
	return &r
}

// Submit presents a foreground request (single blocks; multiblock
// requests are treated block-at-a-time for degraded accounting).
func (s *Sim) Submit(op trace.Op, lba int64) {
	s.res.Requests++
	s.inflight++
	start := s.eng.Now()
	degraded := false
	done := func() {
		ms := sim.Millis(s.eng.Now() - start)
		s.res.Resp.Add(ms)
		if degraded {
			s.res.DegradedResp.Add(ms)
		} else {
			s.res.NormalResp.Add(ms)
		}
		s.inflight--
	}

	home := s.lay.Map(lba)
	ploc := s.lay.Parity(lba)
	if op == trace.Read {
		if home.Disk != s.failed || s.rebuilt {
			s.read(home, disk.PriNormal, done)
			return
		}
		// Degraded read: parity + surviving members, response = max.
		degraded = true
		members := s.survivorLocs(lba)
		l := s.latch(len(members), done)
		for _, m := range members {
			s.read(m, disk.PriNormal, l)
		}
		return
	}

	switch {
	case s.rebuilt || (home.Disk != s.failed && ploc.Disk != s.failed):
		// Normal RMW pair: data then parity, Disk First semantics.
		var dataReadDone bool
		l := s.latch(2, done)
		s.disks[home.Disk].Submit(&disk.Request{
			StartBlock: home.Block, Blocks: 1, Write: true, RMW: true,
			Priority:   disk.PriNormal,
			OnReadDone: func() { dataReadDone = true },
			OnStart: func() {
				s.disks[ploc.Disk].Submit(&disk.Request{
					StartBlock: ploc.Block, Blocks: 1, Write: true, RMW: true,
					Priority: disk.PriNormal,
					Ready:    func() bool { return dataReadDone },
					OnDone:   l,
				})
			},
			OnDone: l,
		})
	case home.Disk == s.failed:
		// Write to the failed disk: read survivors, then write parity.
		degraded = true
		members := s.survivorDataLocs(lba)
		l := s.latch(len(members), func() {
			s.disks[ploc.Disk].Submit(&disk.Request{
				StartBlock: ploc.Block, Blocks: 1, Write: true,
				Priority: disk.PriNormal, OnDone: done,
			})
		})
		for _, m := range members {
			s.read(m, disk.PriNormal, l)
		}
	default:
		// Parity disk failed: plain data write.
		degraded = true
		s.disks[home.Disk].Submit(&disk.Request{
			StartBlock: home.Block, Blocks: 1, Write: true,
			Priority: disk.PriNormal, OnDone: done,
		})
	}
}

// survivorLocs returns the parity block plus surviving member locations
// of lba's stripe (for degraded reads).
func (s *Sim) survivorLocs(lba int64) []layout.Loc {
	locs := s.survivorDataLocs(lba)
	return append(locs, s.lay.Parity(lba))
}

// survivorDataLocs returns the stripe's other data members.
func (s *Sim) survivorDataLocs(lba int64) []layout.Loc {
	var locs []layout.Loc
	for _, m := range s.lay.StripeMembers(nil, lba) {
		if m == lba {
			continue
		}
		locs = append(locs, s.lay.Map(m))
	}
	return locs
}

func (s *Sim) read(loc layout.Loc, pri disk.Priority, onDone func()) {
	s.disks[loc.Disk].Submit(&disk.Request{
		StartBlock: loc.Block, Blocks: 1, Priority: pri, OnDone: onDone,
	})
}

// latch returns a func() that calls fn after being invoked n times.
func (s *Sim) latch(n int, fn func()) func() {
	remaining := n
	if n == 0 {
		fn()
		return func() {}
	}
	return func() {
		remaining--
		if remaining == 0 {
			fn()
		}
	}
}

// rebuildChunk reconstructs physical blocks [start, start+chunk) of the
// failed disk: read the same physical span from every survivor, then
// write the replacement, then schedule the next chunk.
func (s *Sim) rebuildChunk(start int64) {
	bpd := s.cfg.Spec.BlocksPerDisk()
	if start >= bpd {
		s.rebuilt = true
		s.res.RebuildDone = true
		s.res.RebuildTime = s.eng.Now() - s.cfg.RebuildStart
		return
	}
	n := int64(s.cfg.RebuildChunk)
	if start+n > bpd {
		n = bpd - start
	}
	s.res.RebuildChunks++
	survivors := 0
	for d := range s.disks {
		if d != s.failed {
			survivors++
		}
	}
	l := s.latch(survivors, func() {
		// Write the reconstructed span to the replacement drive.
		s.disks[s.failed].Submit(&disk.Request{
			StartBlock: start, Blocks: int(n), Write: true,
			Priority: disk.PriBackground,
			OnDone: func() {
				next := func() { s.rebuildChunk(start + n) }
				if s.cfg.RebuildPause > 0 {
					s.eng.After(s.cfg.RebuildPause, next)
				} else {
					next()
				}
			},
		})
	})
	for d := range s.disks {
		if d == s.failed {
			continue
		}
		s.disks[d].Submit(&disk.Request{
			StartBlock: start, Blocks: int(n),
			Priority: disk.PriBackground, OnDone: l,
		})
	}
}
