package array

import (
	"raidsim/internal/cache"
	"raidsim/internal/disk"
	"raidsim/internal/obs"
	"raidsim/internal/sim"
)

// raid4Scheme is the RAID4-with-parity-caching organization of section
// 4.4: data is striped over N disks with a dedicated parity disk, and
// parity updates are buffered in the same NV cache as data, sorted by
// cylinder and spooled to the parity disk with a SCAN sweep. Foreground
// reads therefore never queue behind parity read-modify-writes, at the
// cost of one fewer data spindle and cache slots spent on parity. The
// scheme only exists behind the cache front-end (New enforces Cached),
// so cc is always set before the first write.
type raid4Scheme struct {
	parityScheme
	cc *cachedCtrl // the front-end whose cache hosts the parity spool

	spooling bool
	scanPos  cache.ParityKey // C-SCAN position on the parity disk
	// stalled is the FIFO of parity admissions waiting for a spool slot.
	// Dequeueing reslices past the head, O(1); append's regrowth copies
	// only the live tail, so the consumed prefix is reclaimed.
	stalled []func()
}

func (s *raid4Scheme) write(w writeOp) {
	if s.c.degradedNow() {
		// Degraded mode bypasses the parity spool: with the parity disk
		// dead there is no parity to keep, and with a data disk dead each
		// block needs the per-block case analysis.
		s.c.parityDegradedWrite(s.lay, w)
		return
	}
	b := s.c.newBatch(w)
	b.plan.build(&b.rb, s.lay, w.lbas, w.hasOld)
	nbuf := len(b.plan.dataRuns)
	if nbuf > 1 && w.spread > 0 {
		b.stagger = w.spread / sim.Time(nbuf)
	}
	b.policy = RF // enqueue parity once its inputs are read
	b.parityIssuer = s.issueParity
	// Track buffers serve the data disks; spooled parity lives in cache
	// slots, so release as soon as the data writes land.
	b.onDataDone = func() { s.c.buf.Release(nbuf) }
	b.admit(nbuf, b.updateFn)
}

// issueParity is the batch's parity issuer: admit the run to the spool.
func (s *raid4Scheme) issueParity(pr parityRun, _ func() bool, done func()) {
	s.enqueueParityRun(pr, 0, done)
}

// enqueueParityRun admits the run's parity blocks into the spool one by
// one. When the cache is full it first reclaims clean blocks ("writes
// have to wait for a block to become free in the cache", section 3.4);
// failing that it waits for the spooler to free a slot, and if the spool
// itself is empty — nothing will ever free a slot — it degrades to a
// direct parity-disk access, the behavior of an uncached RAID4.
func (s *raid4Scheme) enqueueParityRun(pr parityRun, i int, done func()) {
	for ; i < pr.blocks; i++ {
		k := cache.ParityKey{Disk: pr.disk, Block: pr.start + int64(i)}
		for !s.cc.c.AddParityPending(k, pr.full) {
			if v := s.cc.c.CleanVictim(); v != nil && s.cc.c.FreeSlots() == 0 {
				s.cc.c.Drop(v.LBA)
				continue
			}
			if s.cc.c.ParityPendingCount() > 0 {
				i := i
				s.stalled = append(s.stalled, func() { s.enqueueParityRun(pr, i, done) })
				return
			}
			// Spool wedged empty-but-unadmittable: bypass it.
			i := i
			s.c.parityAccesses++
			req := &disk.Request{
				StartBlock: k.Block, Blocks: 1, Write: true,
				Priority: disk.PriBackground,
				OnDone:   func() { s.enqueueParityRun(pr, i+1, done) },
			}
			if !pr.full {
				req.RMW = true
			}
			s.c.disks[k.Disk].Submit(req)
			return
		}
	}
	done()
	s.spool()
}

// spool drives the parity disk: while updates are pending, service them
// in C-SCAN order. Deltas need a read-modify-write (old parity XOR delta);
// full images are plain writes.
func (s *raid4Scheme) spool() {
	if s.spooling {
		return
	}
	// C-SCAN: first pending block at or after the sweep position, else
	// wrap to the lowest.
	pick, ok := s.cc.c.NextParity(s.scanPos)
	if !ok {
		return
	}
	s.spooling = true
	s.c.parityAccesses++
	ep := s.cc.epoch
	// Each spool access is its own background trace tree; the disk layer
	// hangs the mechanism phases directly under its root.
	var root *obs.Span
	if s.c.tr != nil {
		root = s.c.tr.StartBackground("parity-spool", s.c.eng.Now())
		root.SetBlocks(1)
	}
	req := &disk.Request{
		StartBlock: pick.Key.Block,
		Blocks:     1,
		Write:      true,
		Priority:   disk.PriBackground,
		Span:       root,
		OnDone: func() {
			if root != nil {
				s.c.tr.FinishBackground(root, s.c.eng.Now())
			}
			s.scanPos = cache.ParityKey{Disk: pick.Key.Disk, Block: pick.Key.Block + 1}
			// Guard against an NVRAM failure that replaced the cache (and
			// its spool) while this access was in flight.
			if s.cc.epoch == ep {
				s.cc.c.RemoveParityPending(pick.Key)
			}
			s.spooling = false
			// A freed slot may unblock stalled destages.
			if len(s.stalled) > 0 {
				w := s.stalled[0]
				s.stalled[0] = nil
				s.stalled = s.stalled[1:]
				w()
			}
			s.spool()
		},
	}
	if !pick.Full {
		req.RMW = true
	}
	s.c.disks[pick.Key.Disk].Submit(req)
}
