package bus

import (
	"testing"

	"raidsim/internal/sim"
)

func mustChannel(t *testing.T, eng *sim.Engine, mbps float64) *Channel {
	t.Helper()
	c, err := NewChannel(eng, mbps)
	if err != nil {
		t.Fatalf("NewChannel: %v", err)
	}
	return c
}

func mustPool(t *testing.T, eng *sim.Engine, units int) *BufferPool {
	t.Helper()
	p, err := NewBufferPool(eng, units)
	if err != nil {
		t.Fatalf("NewBufferPool: %v", err)
	}
	return p
}

func TestConstructorErrors(t *testing.T) {
	if _, err := NewChannel(sim.New(), 0); err == nil {
		t.Fatal("zero-rate channel should be rejected")
	}
	if _, err := NewChannel(sim.New(), -1); err == nil {
		t.Fatal("negative-rate channel should be rejected")
	}
	if _, err := NewBufferPool(sim.New(), 0); err == nil {
		t.Fatal("zero-capacity pool should be rejected")
	}
}

func TestChannelTransferTime(t *testing.T) {
	eng := sim.New()
	c := mustChannel(t, eng, 10) // 10 MB/s
	// 4096 bytes at 10 MB/s = 409.6 us.
	if got := c.TransferTime(4096); got < 409000 || got > 410000 {
		t.Fatalf("transfer time = %d ns", got)
	}
}

func TestChannelFIFO(t *testing.T) {
	eng := sim.New()
	c := mustChannel(t, eng, 10)
	var done []sim.Time
	for i := 0; i < 3; i++ {
		c.Transfer(4096, func() { done = append(done, eng.Now()) })
	}
	if c.QueueLen() != 2 {
		t.Fatalf("queue length %d, want 2", c.QueueLen())
	}
	eng.Run()
	per := c.TransferTime(4096)
	for i, at := range done {
		want := per * sim.Time(i+1)
		if at != want {
			t.Fatalf("transfer %d done at %d, want %d", i, at, want)
		}
	}
	if len(done) != 3 {
		t.Fatalf("%d of 3 transfers completed", len(done))
	}
}

// TestChannelWaits: a transfer queued behind another waits out its whole
// transfer time, so it completes at exactly twice the transfer time.
func TestChannelWaits(t *testing.T) {
	eng := sim.New()
	c := mustChannel(t, eng, 10)
	var second sim.Time
	c.Transfer(4096, nil)
	c.Transfer(4096, func() { second = eng.Now() })
	eng.Run()
	if want := 2 * c.TransferTime(4096); second != want {
		t.Fatalf("second transfer done at %d, want %d", second, want)
	}
}

func TestChannelValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-size transfer should panic")
		}
	}()
	mustChannel(t, sim.New(), 10).Transfer(0, nil)
}

func TestBufferPoolGrantAndQueue(t *testing.T) {
	eng := sim.New()
	p := mustPool(t, eng, 5)
	granted := []int{}
	p.Acquire(3, func() { granted = append(granted, 3) })
	p.Acquire(2, func() { granted = append(granted, 2) })
	if p.Free() != 0 {
		t.Fatalf("free = %d", p.Free())
	}
	// Queued: needs 4, only released units can satisfy it.
	p.Acquire(4, func() { granted = append(granted, 4) })
	if len(granted) != 2 {
		t.Fatalf("grant of 4 should queue: %v", granted)
	}
	p.Release(3)
	if len(granted) != 2 {
		t.Fatalf("3 free of 4 needed; premature grant: %v", granted)
	}
	p.Release(2)
	if len(granted) != 3 || granted[2] != 4 {
		t.Fatalf("queued grant missing: %v", granted)
	}
	if p.Free() != 1 {
		t.Fatalf("free = %d, want 1", p.Free())
	}
	if p.PeakWaiting != 1 {
		t.Fatalf("peak waiting = %d", p.PeakWaiting)
	}
}

func TestBufferPoolFIFONoOvertake(t *testing.T) {
	eng := sim.New()
	p := mustPool(t, eng, 4)
	var order []int
	p.Acquire(4, func() { order = append(order, 0) })
	p.Acquire(3, func() { order = append(order, 1) })
	p.Acquire(1, func() { order = append(order, 2) }) // could fit before 1, must not overtake
	p.Release(4)
	if len(order) != 3 {
		t.Fatalf("grants: %v", order)
	}
	if order[1] != 1 || order[2] != 2 {
		t.Fatalf("FIFO violated: %v", order)
	}
}

func TestBufferPoolClampsOversized(t *testing.T) {
	eng := sim.New()
	p := mustPool(t, eng, 5)
	ok := false
	p.Acquire(50, func() { ok = true }) // clamped to 5
	if !ok {
		t.Fatal("oversized acquire should clamp and grant")
	}
	if p.Free() != 0 {
		t.Fatalf("free = %d", p.Free())
	}
	p.Release(50) // clamps symmetrically
	if p.Free() != 5 {
		t.Fatalf("free after clamped release = %d", p.Free())
	}
}

func TestBufferPoolOverReleasePanics(t *testing.T) {
	eng := sim.New()
	p := mustPool(t, eng, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("over-release should panic")
		}
	}()
	p.Release(1)
}

func TestBufferPoolZeroAcquire(t *testing.T) {
	eng := sim.New()
	p := mustPool(t, eng, 2)
	ran := false
	p.Acquire(0, func() { ran = true })
	if !ran || p.Free() != 2 {
		t.Fatal("zero acquire should run immediately without consuming")
	}
}
