// Package bus models the path between host and disks: one channel per
// array (a FIFO server transferring at a fixed rate) and a pool of track
// buffers in the controller that decouples channel and disk timing (five
// buffers per disk, per the paper).
package bus

import (
	"fmt"

	"raidsim/internal/sim"
)

// Channel is a FIFO transfer server. All host<->controller block movement
// for an array shares it.
type Channel struct {
	eng  *sim.Engine
	rate float64 // bytes per nanosecond
	busy bool
	q    []transfer
}

type transfer struct {
	bytes  int64
	onDone func()
}

// NewChannel returns a channel transferring at mbps megabytes per second.
func NewChannel(eng *sim.Engine, mbps float64) (*Channel, error) {
	if mbps <= 0 {
		return nil, fmt.Errorf("bus: channel rate must be positive, got %g", mbps)
	}
	return &Channel{eng: eng, rate: mbps * 1e6 / float64(sim.Second)}, nil
}

// TransferTime returns the busy time for moving n bytes.
func (c *Channel) TransferTime(bytes int64) sim.Time {
	return sim.Time(float64(bytes) / c.rate)
}

// Transfer queues a transfer of the given size; onDone fires when the
// transfer completes. Transfers are served FIFO.
func (c *Channel) Transfer(bytes int64, onDone func()) {
	if bytes <= 0 {
		panic("bus: transfer of non-positive size")
	}
	c.q = append(c.q, transfer{bytes: bytes, onDone: onDone})
	c.kick()
}

func (c *Channel) kick() {
	if c.busy || len(c.q) == 0 {
		return
	}
	t := c.q[0]
	copy(c.q, c.q[1:])
	c.q = c.q[:len(c.q)-1]
	c.busy = true
	cc := c.eng.AfterCall(c.TransferTime(t.bytes), xferDoneFire)
	cc.A, cc.B = c, t.onDone
}

// xferDoneFire completes a channel transfer: A = channel, B = the
// transfer's onDone func (possibly nil).
func xferDoneFire(e *sim.Engine, cc *sim.Call) {
	c := cc.A.(*Channel)
	c.busy = false
	if done := cc.B.(func()); done != nil {
		done()
	}
	c.kick()
}

// QueueLen returns the number of queued (not in-flight) transfers.
func (c *Channel) QueueLen() int { return len(c.q) }

// BufferPool is the controller's track-buffer pool. A request path
// acquires all the buffers it will need up front (data, old data, parity)
// and releases them when done; acquiring atomically avoids hold-and-wait
// deadlock between concurrent parity updates.
type BufferPool struct {
	eng  *sim.Engine
	free int
	cap  int
	q    []bufWaiter

	PeakWaiting int
}

type bufWaiter struct {
	n  int
	fn func()
}

// NewBufferPool returns a pool with n buffers.
func NewBufferPool(eng *sim.Engine, n int) (*BufferPool, error) {
	if n <= 0 {
		return nil, fmt.Errorf("bus: buffer pool must have at least one buffer, got %d", n)
	}
	return &BufferPool{eng: eng, free: n, cap: n}, nil
}

// Free reports available buffers.
func (p *BufferPool) Free() int { return p.free }

// Cap reports the pool size.
func (p *BufferPool) Cap() int { return p.cap }

// Acquire grants n buffers to fn, immediately if available, otherwise
// FIFO when released. A request larger than the pool is clamped to the
// whole pool: transfers bigger than the buffering stream through it,
// recycling buffers. Release must be called with the same n.
func (p *BufferPool) Acquire(n int, fn func()) {
	if n <= 0 {
		fn()
		return
	}
	if n > p.cap {
		n = p.cap
	}
	if len(p.q) == 0 && p.free >= n {
		p.free -= n
		fn()
		return
	}
	p.q = append(p.q, bufWaiter{n: n, fn: fn})
	if len(p.q) > p.PeakWaiting {
		p.PeakWaiting = len(p.q)
	}
}

// Release returns n buffers and hands them to waiters in FIFO order. n is
// clamped exactly as in Acquire, so callers pass the same value to both.
func (p *BufferPool) Release(n int) {
	if n <= 0 {
		return
	}
	if n > p.cap {
		n = p.cap
	}
	p.free += n
	if p.free > p.cap {
		panic("bus: released more buffers than acquired")
	}
	for len(p.q) > 0 && p.free >= p.q[0].n {
		w := p.q[0]
		copy(p.q, p.q[1:])
		p.q = p.q[:len(p.q)-1]
		p.free -= w.n
		w.fn()
	}
}
