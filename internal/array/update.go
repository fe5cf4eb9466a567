package array

import "raidsim/internal/disk"

// executeUpdate applies the batch's plan — a batch of writes plus their
// parity updates — to the array, honoring the batch's data/parity
// synchronization policy:
//
//   - SI    parity issued immediately; the parity disk holds rotations
//     until the old data has been read.
//   - RF    parity issued once all its old-data reads complete.
//   - DF    parity issued once its feeding data accesses have acquired
//     their disks; held rotations absorb any remaining skew.
//   - /PR   variants give the parity access queue priority.
//
// Full-stripe parity runs and parity runs whose old data is already in
// the controller have no feeders and are issued immediately regardless of
// policy. Data accesses run at the batch's priority, staggered by its
// stagger; the device-op spans nest under the batch's span.
func (b *batchRec) executeUpdate() {
	plan := &b.plan
	nd, np := len(plan.dataRuns), len(plan.parityRuns)
	b.nd, b.left, b.dataLeft = nd, nd+np, nd
	for i, d := range plan.deps {
		p := b.leg(nd + i)
		p.readsLeft = len(d)  // pending old-data reads
		p.startsLeft = len(d) // pending data-run starts
		p.issued = false
	}
	b.parityPri = b.w.pri
	if b.policy.priority() {
		b.parityPri = disk.PriHigh
	}

	// Parity runs with no feeders are unconstrained by the policy.
	for i := range plan.parityRuns {
		if b.legs[nd+i].readsLeft == 0 || b.policy == SI {
			b.issueParity(i)
		}
	}

	// Reverse maps: data run -> parity runs it feeds.
	for ri := 0; ri < nd; ri++ {
		lg := b.leg(ri)
		lg.feeds = lg.feeds[:0]
	}
	for pi, d := range plan.deps {
		for _, ri := range d {
			b.legs[ri].feeds = append(b.legs[ri].feeds, pi)
		}
	}

	for ri, r := range plan.dataRuns {
		lg := b.legs[ri]
		lg.req = disk.Request{
			StartBlock: r.start,
			Blocks:     int(r.blocks),
			Write:      true,
			Priority:   b.w.pri,
			OnDone:     b.dataDoneFn,
		}
		if plan.dataRMW[ri] {
			// New data is in the controller; no Ready gate.
			lg.req.RMW = true
			lg.req.OnStart = lg.onStartFn
			lg.req.OnReadDone = lg.onReadDoneFn
		}
		b.submitLeg(ri, b.c.disks[r.disk], &lg.req)
	}
}

// issueParity issues parity run i, once.
func (b *batchRec) issueParity(i int) {
	lg := b.legs[b.nd+i]
	if lg.issued {
		return
	}
	lg.issued = true
	pr := b.plan.parityRuns[i]
	if b.parityIssuer != nil {
		b.parityIssuer(pr, lg.readyFn, b.legDoneFn)
		return
	}
	c := b.c
	c.parityAccesses++
	lg.req = disk.Request{
		StartBlock: pr.start,
		Blocks:     pr.blocks,
		Write:      true,
		Priority:   b.parityPri,
		OnDone:     b.legDoneFn,
	}
	if !pr.full {
		lg.req.RMW = true
		lg.req.Ready = lg.readyFn
	}
	if b.w.span != nil {
		name := "write-parity"
		if lg.req.RMW {
			name = "rmw-parity"
		}
		lg.req.Span = b.w.span.Child(name, c.eng.Now())
		lg.req.Span.SetBlocks(pr.blocks)
	}
	c.disks[pr.disk].Submit(&lg.req)
}

// onStart fires when an RMW data leg acquires its disk: under the Disk
// First policies, the parity runs it feeds are issued once all their
// feeders have started.
func (lg *legRec) onStart() {
	b := lg.b
	if !b.policy.diskFirst() {
		return
	}
	for _, pi := range lg.feeds {
		p := b.legs[b.nd+pi]
		p.startsLeft--
		if p.startsLeft == 0 {
			b.issueParity(pi)
		}
	}
}

// onReadDone fires when an RMW data leg has read its old data: parity
// runs it feeds become ready, and under Read First are issued.
func (lg *legRec) onReadDone() {
	b := lg.b
	for _, pi := range lg.feeds {
		p := b.legs[b.nd+pi]
		p.readsLeft--
		if p.readsLeft == 0 && (b.policy == RF || b.policy == RFPR) {
			b.issueParity(pi)
		}
	}
}

// ready gates a parity leg's RMW write phase: all old-data inputs read.
func (lg *legRec) ready() bool { return lg.readsLeft == 0 }
