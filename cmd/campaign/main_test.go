package main

import (
	"strings"
	"testing"

	"raidsim/internal/obs"
)

// TestProgressSuffixAllReplay: a campaign resumed from a complete
// journal replays every run without simulating anything. There is no
// fresh-execution rate to extrapolate from, so the suffix must stay
// empty — not divide replayed events by replay microseconds.
func TestProgressSuffixAllReplay(t *testing.T) {
	f := obs.FleetStatus{
		Total:   4,
		Resumed: 4,
		// The replay pass folded a million recorded events into the
		// journal-inclusive total; over a 2 ms replay they would read
		// 5e8 ev/s, the absurd figure the suffix must not print.
		Events: 1_000_000,
	}
	if s := progressSuffix(f, 4, 4); s != "" {
		t.Errorf("all-replay resume printed %q, want no suffix", s)
	}
}

// TestProgressSuffixOneFreshRun: a mostly-replayed resume with one fresh
// run finished. The ETA must extrapolate from the fresh execution clock
// (0.5 s/run), not a clock that started before the replay pass — and the ev/s figure must come from fresh events
// only, not the journal's replayed totals.
func TestProgressSuffixOneFreshRun(t *testing.T) {
	f := obs.FleetStatus{
		Total:    8,
		Finished: 1,
		Resumed:  3,
		// 1.2 M mostly-replayed events: not a basis for any rate.
		Events: 1_200_000,
		// Fresh-execution view: one run, 50 k events, half a second.
		FreshEvents:       50_000,
		FreshEventsPerSec: 100_000,
		ExecElapsedSec:    0.5,
	}
	got := progressSuffix(f, 4, 8)
	want := " — 100000 ev/s, eta 2s"
	if got != want {
		t.Errorf("one-fresh resume suffix = %q, want %q", got, want)
	}
	for _, bad := range []string{"Inf", "NaN", "-"} {
		if strings.Contains(got, bad) {
			t.Errorf("suffix %q contains %q", got, bad)
		}
	}
	// The same status with 240 remaining runs must scale linearly and
	// stay finite.
	long := progressSuffix(f, 4, 244)
	if want := " — 100000 ev/s, eta 120s"; long != want {
		t.Errorf("long-remaining suffix = %q, want %q", long, want)
	}
}

// TestProgressSuffixNoFreshClock: a finished count without an execution
// clock (pathological registry state) must not divide by zero.
func TestProgressSuffixNoFreshClock(t *testing.T) {
	f := obs.FleetStatus{Total: 4, Finished: 1, Events: 700}
	if s := progressSuffix(f, 1, 4); s != "" {
		t.Errorf("zero ExecElapsedSec printed %q, want no suffix", s)
	}
}

// TestProgressSuffixNoRateYet: a fresh run finished inside the rate
// floor, so the registry reports no rate. The suffix keeps the ETA and
// drops the ev/s figure instead of printing "0 ev/s".
func TestProgressSuffixNoRateYet(t *testing.T) {
	f := obs.FleetStatus{
		Total:          4,
		Finished:       1,
		FreshEvents:    700,
		ExecElapsedSec: obs.MinRateWindowSec / 4,
	}
	if got, want := progressSuffix(f, 1, 4), " — eta 0s"; got != want {
		t.Errorf("no-rate suffix = %q, want %q", got, want)
	}
	// Nothing left to run and no rate: nothing to say.
	if got := progressSuffix(f, 4, 4); got != "" {
		t.Errorf("no-rate, nothing-remaining suffix = %q, want none", got)
	}
}
