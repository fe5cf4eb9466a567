package sim

// Ticker invokes a callback at a fixed period until stopped. It is used for
// periodic background processes such as the cache destage scan.
type Ticker struct {
	eng     *Engine
	period  Time
	fn      func()
	stopped bool
}

// NewTicker schedules fn to run every period nanoseconds, with the first
// firing one period from now. It panics if period is not positive.
func NewTicker(eng *Engine, period Time, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{eng: eng, period: period, fn: fn}
	t.arm()
	return t
}

func (t *Ticker) arm() {
	t.eng.AfterCall(t.period, tickerFire).A = t
}

// tickerFire is the ticker's periodic event: fire the callback and
// re-arm, from a recycled Call so steady ticking allocates nothing.
func tickerFire(_ *Engine, c *Call) {
	t := c.A.(*Ticker)
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		t.arm()
	}
}

// stop cancels future firings. A firing already dispatched for the current
// instant is suppressed.
func (t *Ticker) stop() { t.stopped = true }
