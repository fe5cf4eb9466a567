// Package disk models a single disk drive as a discrete-event server: a
// prioritized FIFO queue feeding a mechanism with seek, rotational
// position, and media transfer, plus the two-phase read-modify-write
// access that parity organizations use (read the old block, wait for the
// platter to come around, write the new block in place — holding extra
// full rotations if the new contents are not yet computable).
package disk

import (
	"fmt"
	"math"

	"raidsim/internal/geom"
	"raidsim/internal/obs"
	"raidsim/internal/sim"
	"raidsim/internal/stats"
)

// Priority orders requests in the disk queue. Lower values are served
// first; within a priority class service is FIFO.
type Priority int

// Priority classes, from most to least urgent.
const (
	PriHigh       Priority = iota // parity accesses under the /PR policies
	PriNormal                     // foreground reads and writes
	PriBackground                 // destage, parity spool, rebuild traffic
	numPriorities
)

// Request is one disk access. StartBlock/Blocks address the drive's own
// block space (see geom.Spec.ToCHS). For RMW requests the drive first
// reads Blocks old blocks at the target location, fires OnReadDone, and
// then writes the same location exactly one rotation after the read pass
// began — or later, in whole-rotation steps, while Ready reports false.
//
// Ownership: the drive holds a submitted *Request until its OnDone
// returns, and never reads it after that — on the normal completion path
// and on the failed-drive drop path alike. A caller may therefore embed
// Requests in pooled records and reuse one, even resubmit it, from
// inside its own OnDone. Until OnDone fires the Request must not be
// modified.
type Request struct {
	StartBlock int64
	Blocks     int
	Write      bool
	RMW        bool
	Priority   Priority

	// TransferSectors, when positive, overrides the media-pass length:
	// the pass starts at StartBlock's position and lasts exactly this
	// many sector times, however many blocks or tracks the request spans,
	// and the arm stays on StartBlock's cylinder. Byte-striped
	// organizations use it: RAID3 moves a 1/N slice of each of its
	// blocks per disk, over runs of one or more blocks. Blocks still
	// bounds the address check and counts in Stats. Submit rejects a
	// negative value and any override on an RMW request.
	TransferSectors int

	// Ready gates the RMW write phase; nil means always ready.
	Ready func() bool
	// OnStart fires when the request acquires the mechanism (Disk First
	// policies hook this). May be nil.
	OnStart func()
	// OnReadDone fires when an RMW request finishes reading old data.
	// May be nil.
	OnReadDone func()
	// OnDone fires when the request fully completes. May be nil.
	OnDone func()

	// Span, when non-nil, receives the access's mechanism sub-spans
	// (queue wait, seek+rotate, transfer, and the RMW legs read-old /
	// realign / hold-rotation / write-new) and is closed when the access
	// completes or is dropped. The controller allocates it; a nil Span
	// (tracing off) costs one branch per probe point.
	Span *obs.Span

	enqueued sim.Time
}

// Stats aggregates a drive's activity counters.
type Stats struct {
	Accesses      int64 // requests serviced
	Reads         int64
	Writes        int64
	RMWs          int64
	BlocksRead    int64
	BlocksWritten int64
	SeekDistSum   int64 // cylinders traveled
	SeekCount     int64 // seeks with distance >= 1
	HeldRotations int64 // extra full rotations waiting for RMW inputs
	RMWAborts     int64 // RMWs that gave up holding and requeued
	Dropped       int64 // requests refused because the drive had failed

	// Mechanism-time attribution for the latency breakdown. The three sums
	// partition the pure mechanism time (seek travel, rotational
	// positioning including RMW write-pass realignment, media passes);
	// held rotations are tracked separately above. An aborted RMW keeps
	// the mechanism time it consumed, like HeldRotations. QueueTime sums
	// the time accesses waited in the queue, each wait counted again when
	// an aborted RMW requeues.
	SeekTime     sim.Time
	RotateTime   sim.Time
	TransferTime sim.Time
	QueueTime    sim.Time
	Util         stats.Utilization
}

// Probe receives the drive's mechanism-busy intervals; package obs
// implements it. A nil probe (the default) costs one branch per service.
type Probe interface {
	DiskBusy(id int, from, to sim.Time)
}

// Disk is a single simulated drive.
type Disk struct {
	ID   int
	eng  *sim.Engine
	seek geom.SeekModel

	phase  float64 // initial rotational phase, fraction of a revolution
	cyl    int     // current arm cylinder
	busy   bool
	failed bool

	// slow, when > 1, stretches the mechanism's seek and media-transfer
	// times by that factor: the "sick disk" degradation mode where a drive
	// still works but everything takes longer (fault.SickDisk.SlowFactor).
	slow float64
	// hangUntil gates the scheduler: while now < hangUntil the mechanism
	// refuses new work (queued requests wait; an access already in flight
	// completes normally). Models firmware stalls / intermittent hangs.
	hangUntil sim.Time
	hangWake  bool // a wake-up event for hangUntil is already scheduled

	// Geometry derived from spec and seek once, in New, so an access
	// neither recomputes it nor copies the Spec: blocks per track, per
	// cylinder and per disk; one revolution; one block's and one
	// sector's media pass; a single-cylinder seek.
	bpt, bpc, bpd              int64
	rot, blockXfer, sectorXfer sim.Time
	seek1                      sim.Time

	sched  Sched
	lookUp bool // LOOK sweep direction
	queues [numPriorities][]*Request

	probe     Probe
	busySince sim.Time

	S Stats
}

// SetProbe attaches an observability probe (nil detaches it).
func (d *Disk) SetProbe(p Probe) { d.probe = p }

// New returns an idle drive with its arm at cylinder 0 and the given
// rotational phase in [0, 1). No spindle synchronization is assumed, so
// callers give each drive an independent random phase. The spec must be
// valid (geom.Spec.Validate).
func New(eng *sim.Engine, id int, spec geom.Spec, seek geom.SeekModel, phase float64) (*Disk, error) {
	if phase < 0 || phase >= 1 {
		return nil, fmt.Errorf("disk: phase %f outside [0,1)", phase)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Disk{
		ID: id, eng: eng, seek: seek, phase: phase,
		bpt:        int64(spec.BlocksPerTrack()),
		bpc:        int64(spec.BlocksPerCylinder()),
		bpd:        spec.BlocksPerDisk(),
		rot:        spec.RotationTime(),
		blockXfer:  spec.BlockTransferTime(),
		sectorXfer: spec.SectorTime(),
		seek1:      seek.Time(1),
	}, nil
}

// SetSlowFactor stretches (factor > 1) or restores (factor <= 1) the
// drive's mechanism times: seeks and media passes take factor times as
// long. It affects only accesses that acquire the mechanism after the
// call; an access in flight keeps the timing it was planned with.
func (d *Disk) SetSlowFactor(factor float64) {
	if factor <= 1 {
		d.slow = 0
		return
	}
	d.slow = factor
}

// Hang stalls the mechanism until the given absolute time: queued and
// newly submitted requests wait, an access already in service completes
// normally. Overlapping hangs extend to the latest deadline. The drive
// wakes itself and resumes its queue when the hang expires.
func (d *Disk) Hang(until sim.Time) {
	if until <= d.hangUntil || until <= d.eng.Now() {
		return
	}
	d.hangUntil = until
	if !d.hangWake {
		d.hangWake = true
		d.armHangWake()
	}
}

// armHangWake schedules the post-hang queue kick; chained if the hang was
// extended while waiting.
func (d *Disk) armHangWake() {
	d.eng.At(d.hangUntil, func() {
		if d.eng.Now() < d.hangUntil {
			d.armHangWake()
			return
		}
		d.hangWake = false
		d.trySchedule()
	})
}

// Cylinder returns the arm's current (or in-flight target) cylinder, used
// by the mirrored organization's shortest-seek read routing.
func (d *Disk) Cylinder() int { return d.cyl }

// CylinderOf returns the cylinder holding block, the same as the drive
// spec's ToCHS(block).Cylinder for a block on the drive.
func (d *Disk) CylinderOf(block int64) int { return int(block / d.bpc) }

// chs returns block's cylinder and its block index within its track, as
// geom.Spec.ToCHS does.
func (d *Disk) chs(block int64) (cyl, trackBlock int) {
	rem := block % d.bpc
	return int(block / d.bpc), int(rem % d.bpt)
}

// angleOf returns the start angle of a track block, as
// geom.Spec.AngleOfBlock does.
func (d *Disk) angleOf(trackBlock int) float64 {
	return float64(trackBlock) / float64(d.bpt)
}

// QueueLen returns the number of requests waiting (not in service).
func (d *Disk) QueueLen() int {
	n := 0
	for _, q := range d.queues {
		n += len(q)
	}
	return n
}

// Busy reports whether the mechanism is in use.
func (d *Disk) Busy() bool { return d.busy }

// Fail kills the drive. Queued requests are dropped — their callbacks
// still fire (in order, a moment later) so controller bookkeeping that
// waits on OnStart/OnReadDone/OnDone stays live; it is the controller's
// job to know the drive is dead and not trust the "data". A request
// already holding the mechanism completes normally (its media pass was in
// flight when the electronics died). Idempotent.
func (d *Disk) Fail() {
	if d.failed {
		return
	}
	d.failed = true
	for p := range d.queues {
		for _, r := range d.queues[p] {
			d.drop(r)
		}
		d.queues[p] = nil
	}
}

// Repair puts a fresh working drive in this slot (hot-spare swap). The
// replacement mechanism starts with its arm at cylinder 0; rotational
// phase is inherited (one arbitrary phase is as good as another).
func (d *Disk) Repair() {
	if !d.failed {
		return
	}
	d.failed = false
	d.cyl = 0
}

// drop fails one request: its lifecycle callbacks fire in the usual
// order on a fresh engine event, with no media time modeled.
func (d *Disk) drop(r *Request) {
	d.S.Dropped++
	c := d.eng.AfterCall(0, dropFire)
	c.A, c.B = d, r
}

func dropFire(e *sim.Engine, c *sim.Call) {
	r := c.B.(*Request)
	r.Span.CloseAt(e.Now())
	if r.OnStart != nil {
		r.OnStart()
	}
	if r.RMW && r.OnReadDone != nil {
		r.OnReadDone()
	}
	if r.OnDone != nil {
		r.OnDone()
	}
}

// Submit enqueues a request. It panics on malformed requests — those are
// controller bugs, not simulated conditions.
func (d *Disk) Submit(r *Request) {
	if r.Blocks <= 0 {
		panic("disk: request with no blocks")
	}
	if r.StartBlock < 0 || r.StartBlock+int64(r.Blocks) > d.bpd {
		panic(fmt.Sprintf("disk %d: request [%d,%d) outside drive [0,%d)",
			d.ID, r.StartBlock, r.StartBlock+int64(r.Blocks), d.bpd))
	}
	if r.RMW && !r.Write {
		panic("disk: RMW request must be a write")
	}
	if r.TransferSectors < 0 || (r.TransferSectors > 0 && r.RMW) {
		panic("disk: bad TransferSectors")
	}
	if r.Priority < 0 || r.Priority >= numPriorities {
		panic("disk: bad priority")
	}
	r.Span.SetDisk(d.ID)
	if d.failed {
		d.drop(r)
		return
	}
	r.enqueued = d.eng.Now()
	d.queues[r.Priority] = append(d.queues[r.Priority], r)
	d.trySchedule()
}

func (d *Disk) trySchedule() {
	if d.busy {
		return
	}
	if d.eng.Now() < d.hangUntil {
		return // hung: the wake-up scheduled by Hang resumes the queue
	}
	r := d.pop()
	if r == nil {
		return
	}
	d.busy = true
	now := d.eng.Now()
	d.busySince = now
	d.S.Util.SetBusy(now)
	d.S.QueueTime += now - r.enqueued
	if now > r.enqueued {
		r.Span.ChildSpan(obs.SpanQueue, r.enqueued, now)
	}
	if r.OnStart != nil {
		r.OnStart()
	}
	d.service(r, now)
}

// angleAt returns the rotational position at time t as a fraction of a
// revolution in [0, 1).
func (d *Disk) angleAt(t sim.Time) float64 {
	pos := float64(t%d.rot)/float64(d.rot) + d.phase
	return pos - math.Floor(pos)
}

// rotationalDelay returns the time until the head next reaches angle a,
// starting from time t. Zero if it is exactly there.
func (d *Disk) rotationalDelay(t sim.Time, a float64) sim.Time {
	cur := d.angleAt(t)
	frac := a - cur
	if frac < 0 {
		frac++
	}
	return sim.Time(frac * float64(d.rot))
}

// transferPlan describes the media pass over a contiguous block run.
type transferPlan struct {
	duration sim.Time // total media time including cylinder crossings
	endCyl   int      // arm position afterwards
}

// planTransfer computes the media transfer of n blocks starting at start.
// Consecutive blocks stream continuously across heads within a cylinder
// (track skew hides head-switch time); crossing a cylinder boundary costs
// a single-cylinder seek, with the layout skewed so no additional
// rotation is lost.
func (d *Disk) planTransfer(start int64, n int) transferPlan {
	dur := sim.Time(n) * d.blockXfer
	startCyl := d.CylinderOf(start)
	endCyl := d.CylinderOf(start + int64(n) - 1)
	if crossings := endCyl - startCyl; crossings > 0 {
		dur += sim.Time(crossings) * d.seek1
	}
	return transferPlan{duration: dur, endCyl: endCyl}
}

func (d *Disk) service(r *Request, now sim.Time) {
	cyl, trackBlock := d.chs(r.StartBlock)
	dist := cyl - d.cyl
	if dist < 0 {
		dist = -dist
	}
	if dist > 0 {
		d.S.SeekDistSum += int64(dist)
		d.S.SeekCount++
	}
	seekT := d.seek.Time(dist)
	if d.slow > 1 {
		seekT = sim.Time(float64(seekT) * d.slow)
	}
	d.S.SeekTime += seekT
	d.cyl = cyl

	arrive := now + seekT
	startAngle := d.angleOf(trackBlock)
	latency := d.rotationalDelay(arrive, startAngle)
	d.S.RotateTime += latency
	var plan transferPlan
	if r.TransferSectors > 0 {
		plan = transferPlan{
			duration: d.sectorXfer * sim.Time(r.TransferSectors),
			endCyl:   cyl,
		}
	} else {
		plan = d.planTransfer(r.StartBlock, r.Blocks)
	}
	if d.slow > 1 {
		plan.duration = sim.Time(float64(plan.duration) * d.slow)
	}
	d.cyl = plan.endCyl

	passStart := arrive + latency
	passEnd := passStart + plan.duration
	d.S.TransferTime += plan.duration
	r.Span.ChildSpan(obs.SpanSeekRotate, now, passStart)

	d.S.Accesses++
	if r.RMW {
		d.S.RMWs++
		d.S.BlocksRead += int64(r.Blocks)
		d.S.BlocksWritten += int64(r.Blocks)
	} else if r.Write {
		d.S.Writes++
		d.S.BlocksWritten += int64(r.Blocks)
	} else {
		d.S.Reads++
		d.S.BlocksRead += int64(r.Blocks)
	}

	if !r.RMW {
		r.Span.ChildSpan(obs.SpanTransfer, passStart, passEnd)
		fc := d.eng.AtCall(passEnd, finishFire)
		fc.A, fc.B = d, r
		return
	}
	r.Span.ChildSpan(obs.SpanReadOld, passStart, passEnd)

	// RMW: the pass just performed is the old-data read. The write of the
	// new data can begin when the head is back over the start of the run:
	// a whole number of rotations after the read pass began, the first
	// instant at or after the read pass ends (multi-track runs keep this
	// alignment because the layout is skewed).
	rc := d.eng.AtCall(passEnd, rmwReadDoneFire)
	rc.A, rc.B = d, r
	rc.N0 = plan.duration
}

// finishFire completes an access: A = disk, B = request.
func finishFire(_ *sim.Engine, c *sim.Call) {
	c.A.(*Disk).finish(c.B.(*Request))
}

// rmwReadDoneFire runs at the end of an RMW old-data read pass: A =
// disk, B = request, N0 = media-pass duration. The pass start is
// recovered from the clock (the event fires at pass end).
func rmwReadDoneFire(e *sim.Engine, c *sim.Call) {
	d := c.A.(*Disk)
	r := c.B.(*Request)
	dur := c.N0
	passEnd := e.Now()
	passStart := passEnd - dur
	if r.OnReadDone != nil {
		r.OnReadDone()
	}
	rot := d.rot
	k := (dur + rot - 1) / rot
	if k < 1 {
		k = 1
	}
	// The gap between the read pass ending and the write pass starting
	// is rotational repositioning.
	d.S.RotateTime += k*rot - dur
	r.Span.ChildSpan(obs.SpanRealign, passEnd, passStart+k*rot)
	d.rmwWriteAttempt(r, passStart+k*rot, dur, 0)
}

// maxHeldRotations bounds how long an RMW may hold the mechanism waiting
// for its inputs ("the parity disk is held for the duration of some
// number of full rotations", section 3.3). Past the bound the access
// gives up and requeues at the head of its class — without the bound,
// two Simultaneous-Issue parity updates holding each other's data disks
// would deadlock.
const maxHeldRotations = 8

// rmwWriteAttempt tries to start the RMW write pass at writeStart; if the
// inputs are not ready the head must make another full rotation.
func (d *Disk) rmwWriteAttempt(r *Request, writeStart sim.Time, dur sim.Time, holds int) {
	c := d.eng.AtCall(writeStart, rmwWriteFire)
	c.A, c.B = d, r
	c.N0, c.N2 = dur, int64(holds)
}

// rmwWriteFire runs at an RMW write-pass start attempt: A = disk, B =
// request, N0 = pass duration, N2 = rotations held so far. The event
// fires at the attempted write start.
func rmwWriteFire(e *sim.Engine, c *sim.Call) {
	d := c.A.(*Disk)
	r := c.B.(*Request)
	dur, holds := c.N0, int(c.N2)
	writeStart := e.Now()
	if r.Ready != nil && !r.Ready() {
		d.S.HeldRotations++
		r.Span.ChildSpan(obs.SpanHold, writeStart, writeStart+d.rot)
		if holds+1 >= maxHeldRotations {
			d.S.RMWAborts++
			d.requeue(r)
			return
		}
		d.rmwWriteAttempt(r, writeStart+d.rot, dur, holds+1)
		return
	}
	d.S.TransferTime += dur
	r.Span.ChildSpan(obs.SpanWriteNew, writeStart, writeStart+dur)
	fc := d.eng.AtCall(writeStart+dur, finishFire)
	fc.A, fc.B = d, r
}

// requeue releases the mechanism and puts the request at the back of its
// priority class, letting queued work — possibly the very data read this
// access is waiting for — run first. It will redo its old-data read when
// it next acquires the disk.
func (d *Disk) requeue(r *Request) {
	// The retried access redoes its read pass (and re-fires OnStart /
	// OnReadDone if set — parity accesses, the only gated kind, set
	// neither); compensate the counters so it is tallied once.
	d.S.Accesses--
	d.S.RMWs--
	d.S.BlocksRead -= int64(r.Blocks)
	d.S.BlocksWritten -= int64(r.Blocks)
	d.busy = false
	d.S.Util.SetIdle(d.eng.Now())
	if d.probe != nil {
		d.probe.DiskBusy(d.ID, d.busySince, d.eng.Now())
	}
	if d.failed {
		d.drop(r)
		return
	}
	r.enqueued = d.eng.Now()
	d.queues[r.Priority] = append(d.queues[r.Priority], r)
	d.trySchedule()
}

func (d *Disk) finish(r *Request) {
	now := d.eng.Now()
	d.busy = false
	d.S.Util.SetIdle(now)
	if d.probe != nil {
		d.probe.DiskBusy(d.ID, d.busySince, now)
	}
	r.Span.CloseAt(now)
	if r.OnDone != nil {
		r.OnDone()
	}
	d.trySchedule()
}
