package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metricDef defines one reported metric. clock says what the number
// measures: host (time or memory of the machine running the benchmark),
// simulated (time inside the model), or exact (a count that repeats
// bit-for-bit on any host).
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // share of the parent's median it may worsen by; end-to-end only
	clock  string
}

// endToEnd are the metrics a user of raidsim waits on or pays for. Every
// workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "host, reference speed"},
	{"wall_s", "s", "lower", 0.25, "host, reference speed"},
	{"req_per_s", "req/s", "higher", 0.25, "host, reference speed"},
	{"peak_rss_mb", "MB", "lower", 0.2, "host"},
}

// value is one metric in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a workload invocation prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// Calibration. A shared host's speed drifts by ±15% over seconds as its
// neighbours come and go, and the drift slows all CPU work alike. So the
// benchmark times a fixed amount of plain Go work, which calls no raidsim
// code, between the steps of every pass, and scales the pass's host time
// by calRefMS over the calibration's duration at that moment: the time the
// pass would have taken at the reference host's typical speed. A change
// to raidsim cannot move the calibration, so it moves the scaled time as
// much as the raw one.
const (
	calKeys  = 1 << 15 // integers one calibration sample copies and sorts
	calMap   = 1 << 13 // of which it also inserts this many into a map
	calRefMS = 3.2     // median ms of one sample on the reference host
	calMin   = 20 * time.Millisecond
	calShare = 0.1                    // calibration time per host second measured
	segMin   = 200 * time.Millisecond // least host time between calibrations
)

// speedMeter splits a timed stretch of work into segments at the
// boundaries between its steps, calibrates between segments, and scales
// each segment's host time by the mean of the calibrations on either side.
type speedMeter struct {
	lanes    []*calLane // one per worker, calibrated in parallel
	last     float64    // ms per sample of the latest calibration
	segStart time.Time  // start of the open segment
	hostS    float64    // host seconds of the closed segments
	refS     float64    // the same at the reference speed
}

// calLane is one goroutine's calibration state.
type calLane struct {
	keys, buf []int
	m         map[int]int
}

func newSpeedMeter() *speedMeter {
	s := &speedMeter{}
	for range workers {
		l := &calLane{keys: make([]int, calKeys), buf: make([]int, calKeys), m: make(map[int]int, calMap)}
		x := uint64(1)
		for i := range l.keys {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			l.keys[i] = int(x >> 1)
		}
		s.lanes = append(s.lanes, l)
	}
	return s
}

// sample is one unit of calibration work. It allocates nothing, so it
// neither triggers nor waits for the collector.
func (l *calLane) sample() {
	copy(l.buf, l.keys)
	slices.Sort(l.buf)
	clear(l.m)
	for _, k := range l.keys[:calMap] {
		l.m[k]++
	}
}

// calibrate runs samples on every lane at once, as a pass keeps up to
// workers CPUs busy, for at least d, and returns host ms per sample per
// lane.
func (s *speedMeter) calibrate(d time.Duration) float64 {
	t := time.Now()
	n := make([]int, len(s.lanes))
	var wg sync.WaitGroup
	for i, l := range s.lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n[i] == 0 || time.Since(t) < d {
				l.sample()
				n[i]++
			}
		}()
	}
	wg.Wait()
	return float64(time.Since(t).Nanoseconds()) / 1e6 * float64(len(n)) / float64(sum(n))
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// begin calibrates and opens the first segment. Like step, it does
// nothing on a nil meter.
func (s *speedMeter) begin() {
	if s == nil {
		return
	}
	s.hostS, s.refS = 0, 0
	s.last = s.calibrate(calMin)
	s.segStart = time.Now()
}

// step marks a boundary between two steps of the work: the open segment
// closes there once it has lasted segMin.
func (s *speedMeter) step() {
	if s != nil && time.Since(s.segStart) >= segMin {
		s.close()
	}
}

func (s *speedMeter) close() {
	d := time.Since(s.segStart).Seconds()
	cal := s.calibrate(max(calMin, time.Duration(calShare*d*float64(time.Second))))
	s.hostS += d
	s.refS += d * calRefMS / ((s.last + cal) / 2)
	s.last = cal
	s.segStart = time.Now()
}

// end closes the last segment and returns the host seconds measured,
// scaled to the reference speed, and the scale factor.
func (s *speedMeter) end() (refS, factor float64) {
	s.close()
	return s.refS, s.refS / s.hostS
}

// timeSetup builds the workload's full-size inputs at least three times
// and for at least half a second, and returns the last inputs with every
// setup time at the reference speed.
func timeSetup(w *workloadDef, seed uint64, sm *speedMeter) (*input, []float64, error) {
	var times []float64
	var in *input
	total := 0.0
	sm.begin()
	for len(times) < 3 || (total < 0.5 && len(times) < 500) {
		in = nil
		runtime.GC()
		t := time.Now()
		var err error
		if in, err = w.setup(seed, false); err != nil {
			return nil, nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		d := time.Since(t).Seconds()
		times = append(times, d)
		total += d
		sm.step()
	}
	_, f := sm.end()
	for i := range times {
		times[i] *= f
	}
	return in, times, nil
}

// measure runs whole passes over the inputs for seconds of host time —
// at least one pass, and no pass that would likely end past seconds —
// checking every pass's fingerprints against want or, when want is nil,
// against the first pass's. Each metric is the median over the passes
// (setup_s over the setups); times are at the reference speed.
func measure(w *workloadDef, seed uint64, seconds float64, want map[string]string) (*result, string, error) {
	sm := newSpeedMeter()
	in, setupTimes, err := timeSetup(w, seed, sm)
	if err != nil {
		return nil, "", err
	}
	var wall, rate, rss []float64
	res := &result{Metrics: map[string]value{}}
	digest := ""
	start := time.Now()
	last := 0.0
	for len(wall) == 0 || time.Since(start).Seconds()+last <= seconds {
		debug.FreeOSMemory()
		resetPeakRSS()
		t := time.Now()
		o, err := in.pass(nil, nil, outDir, sm)
		last = time.Since(t).Seconds()
		if err != nil {
			return nil, "", fmt.Errorf("%s: %w", w.name, err)
		}
		peak, err := peakRSSMB()
		if err != nil {
			return nil, "", err
		}
		if digest == "" {
			digest = o.digest()
			if want == nil {
				want = o.fps
			}
		}
		res.Attempted += o.attempted
		res.Failed += o.failed(want)
		for k, msg := range o.bad {
			fmt.Fprintf(os.Stderr, "%s: %s: %s\n", w.name, k, msg)
		}
		wall = append(wall, o.wallS)
		rate = append(rate, float64(o.requests)/o.simulateS)
		rss = append(rss, peak)
	}
	res.Correct = res.Failed == 0
	for name, xs := range map[string][]float64{"setup_s": setupTimes, "wall_s": wall, "req_per_s": rate, "peak_rss_mb": rss} {
		res.Metrics[name] = value{quantile(xs, 0.5), defOf(endToEnd, name).unit}
	}
	return res, digest, nil
}

func defOf(defs []metricDef, name string) metricDef {
	for _, d := range defs {
		if d.name == name {
			return d
		}
	}
	panic("bench: undefined metric " + name)
}

// quantile interpolates linearly between order statistics (the
// "inclusive" method); 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// resetPeakRSS sets the process's resident-set high-water mark to its
// current resident set, so the next peakRSSMB covers one pass with the
// inputs loaded. Kernels without the interface keep the whole-process
// mark.
func resetPeakRSS() {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintln(os.Stderr, "peak RSS covers the whole process:", err)
	}
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// cpuSeconds returns the process's user plus system CPU time.
func cpuSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("reading CPU time: %w", err)
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), nil
}
