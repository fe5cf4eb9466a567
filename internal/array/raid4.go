package array

import (
	"raidsim/internal/cache"
	"raidsim/internal/disk"
	"raidsim/internal/layout"
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
	// stalled is the FIFO of parity admissions waiting for a spool slot,
	// kept as values so a stall allocates nothing.
	stalled []parityWait

	// The spool's one access in flight (spooling guards it): the update
	// it applies, the cache epoch it was picked under, its request and
	// trace root — a single record, since there is never a second.
	pick      cache.PendingParity
	pickEp    int
	spoolReq  disk.Request
	spoolRoot *obs.Span

	issueParityFn func(pr parityRun, ready func() bool, done func())
	spoolDoneFn   func()
}

// newRAID4Scheme builds the scheme over lay with its continuations bound
// once, as a pooled record's are.
func newRAID4Scheme(c *common, lay *layout.RAID4) *raid4Scheme {
	s := &raid4Scheme{parityScheme: parityScheme{c: c, lay: lay}}
	s.issueParityFn, s.spoolDoneFn = s.issueParity, s.spoolDone
	return s
}

// parityWait is a stalled parity admission: block i onward of run pr,
// then done.
type parityWait struct {
	pr   parityRun
	i    int
	done func()
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
	b.parityIssuer = s.issueParityFn
	// Track buffers serve the data disks; spooled parity lives in cache
	// slots, so release as soon as the data writes land.
	b.dataBufs = nbuf
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
				s.stalled = append(s.stalled, parityWait{pr, i, done})
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
	s.pick, s.pickEp = pick, s.cc.epoch
	// Each spool access is its own background trace tree; the disk layer
	// hangs the mechanism phases directly under its root.
	s.spoolRoot = nil
	if s.c.tr != nil {
		s.spoolRoot = s.c.tr.StartBackground("parity-spool", s.c.eng.Now())
		s.spoolRoot.SetBlocks(1)
	}
	s.spoolReq = disk.Request{
		StartBlock: pick.Key.Block,
		Blocks:     1,
		Write:      true,
		RMW:        !pick.Full,
		Priority:   disk.PriBackground,
		Span:       s.spoolRoot,
		OnDone:     s.spoolDoneFn,
	}
	s.c.disks[pick.Key.Disk].Submit(&s.spoolReq)
}

// spoolDone completes a spool access: the update leaves the spool, the
// sweep advances past it, and a freed slot may admit a stalled batch
// before the next access starts.
func (s *raid4Scheme) spoolDone() {
	if s.spoolRoot != nil {
		s.c.tr.FinishBackground(s.spoolRoot, s.c.eng.Now())
	}
	key := s.pick.Key
	s.scanPos = cache.ParityKey{Disk: key.Disk, Block: key.Block + 1}
	// Guard against an NVRAM failure that replaced the cache (and its
	// spool) while this access was in flight.
	if s.cc.epoch == s.pickEp {
		s.cc.c.RemoveParityPending(key)
	}
	s.spooling = false
	if len(s.stalled) > 0 {
		// Shift rather than reslice past the head, so the storage is
		// reused instead of regrown; the FIFO holds at most one entry
		// per in-flight batch's parity run.
		w := s.stalled[0]
		n := copy(s.stalled, s.stalled[1:])
		s.stalled[n] = parityWait{}
		s.stalled = s.stalled[:n]
		s.enqueueParityRun(w.pr, w.i, w.done)
	}
	s.spool()
}
