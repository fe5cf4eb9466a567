package disk

import "fmt"

// Sched selects the queue discipline a drive uses *within* a priority
// class (priority classes are always served strictly in order). The paper
// models FIFO disks; SSTF and LOOK are provided as extensions to study
// how much controller-level load balancing overlaps with drive-level
// scheduling.
type Sched int

// Queue disciplines.
const (
	// FIFO serves requests in arrival order (the paper's model).
	FIFO Sched = iota
	// SSTF serves the request with the shortest seek from the current
	// arm position. Throughput-optimal for random loads but can starve
	// edge cylinders.
	SSTF
	// LOOK is the elevator: the arm sweeps toward the nearest extreme
	// request, serving requests in passing, then reverses.
	LOOK
)

func (s Sched) String() string {
	switch s {
	case FIFO:
		return "fifo"
	case SSTF:
		return "sstf"
	case LOOK:
		return "look"
	}
	return fmt.Sprintf("sched(%d)", int(s))
}

// ParseSched converts a name to a Sched.
func ParseSched(name string) (Sched, error) {
	switch name {
	case "fifo", "":
		return FIFO, nil
	case "sstf":
		return SSTF, nil
	case "look", "scan", "elevator":
		return LOOK, nil
	}
	return 0, fmt.Errorf("disk: unknown scheduler %q", name)
}

// SetSched selects the drive's queue discipline. Change it only while
// the queue is empty (typically right after New). An out-of-range value
// is reported as an error, like a bad constructor argument.
func (d *Disk) SetSched(s Sched) error {
	if s < FIFO || s > LOOK {
		return fmt.Errorf("disk: bad scheduler %d", int(s))
	}
	d.sched = s
	return nil
}

// pop removes and returns the next request to serve under the configured
// discipline, or nil if every queue is empty.
func (d *Disk) pop() *Request {
	for p := range d.queues {
		q := d.queues[p]
		if len(q) == 0 {
			continue
		}
		var idx int
		switch d.sched {
		case SSTF:
			idx = d.pickSSTF(q)
		case LOOK:
			idx = d.pickLOOK(q)
		default:
			idx = 0
		}
		r := q[idx]
		copy(q[idx:], q[idx+1:])
		d.queues[p] = q[:len(q)-1]
		return r
	}
	return nil
}

func (d *Disk) cylOf(r *Request) int {
	return d.CylinderOf(r.StartBlock)
}

// pickSSTF returns the index of the queued request nearest the arm,
// breaking ties toward the older request.
func (d *Disk) pickSSTF(q []*Request) int {
	best, bestDist := 0, 1<<31
	for i, r := range q {
		dist := d.cylOf(r) - d.cyl
		if dist < 0 {
			dist = -dist
		}
		if dist < bestDist {
			best, bestDist = i, dist
		}
	}
	return best
}

// pickLOOK returns the index of the next request in the current sweep
// direction (nearest cylinder at or beyond the arm); when none remains in
// that direction the sweep reverses.
func (d *Disk) pickLOOK(q []*Request) int {
	pick := d.pickLOOKDir(q, d.lookUp)
	if pick < 0 {
		d.lookUp = !d.lookUp
		pick = d.pickLOOKDir(q, d.lookUp)
	}
	if pick < 0 {
		// All requests are exactly at the current cylinder boundary
		// corner case; fall back to FIFO.
		pick = 0
	}
	return pick
}

func (d *Disk) pickLOOKDir(q []*Request, up bool) int {
	best, bestDist := -1, 1<<31
	for i, r := range q {
		delta := d.cylOf(r) - d.cyl
		if !up {
			delta = -delta
		}
		if delta < 0 {
			continue
		}
		if delta < bestDist {
			best, bestDist = i, delta
		}
	}
	return best
}
