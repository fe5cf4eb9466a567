package model

import (
	"math"
	"testing"

	"raidsim/internal/array"
	"raidsim/internal/geom"
	"raidsim/internal/layout"
)

func device(t *testing.T) Device {
	t.Helper()
	d, err := NewDevice(geom.Default())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestZeroLoadComponents(t *testing.T) {
	d := device(t)
	// Average access ~ 11.2 + 5.56 + 1.85 = 18.6 ms for one 4KB block.
	acc := d.accessMS(1)
	if acc < 17 || acc < 18 && acc > 20 || acc > 20 {
		t.Fatalf("access estimate %.2f ms out of range", acc)
	}
	// RMW adds exactly one rotation.
	if diff := d.rmwMS(1) - acc - d.RotationMS(); math.Abs(diff) > 1e-9 {
		t.Fatalf("rmw - access != rotation: %f", diff)
	}
	if ch := d.ChannelMS(1); ch < 0.4 || ch > 0.42 {
		t.Fatalf("channel estimate %.3f ms", ch)
	}
}

func TestZeroLoadOrdering(t *testing.T) {
	d := device(t)
	readBase, _ := ZeroLoadResponse(d, array.OrgBase, false)
	readMirror, _ := ZeroLoadResponse(d, array.OrgMirror, false)
	writeBase, _ := ZeroLoadResponse(d, array.OrgBase, true)
	writeMirror, _ := ZeroLoadResponse(d, array.OrgMirror, true)
	writeRAID5, _ := ZeroLoadResponse(d, array.OrgRAID5, true)
	readRAID5, _ := ZeroLoadResponse(d, array.OrgRAID5, false)

	if readMirror >= readBase {
		t.Error("mirror reads should be faster than base (shorter seeks)")
	}
	if writeMirror <= writeBase {
		t.Error("mirror writes should be slower than base (max of two)")
	}
	if writeRAID5 <= writeBase {
		t.Error("RAID5 small writes must pay the RMW penalty")
	}
	if writeRAID5-readRAID5 < d.RotationMS() {
		t.Error("RAID5 write penalty should be at least a rotation")
	}
	if _, err := ZeroLoadResponse(d, array.Org(99), false); err == nil {
		t.Error("unknown org accepted")
	}
}

func TestZeroLoadMean(t *testing.T) {
	d := device(t)
	r, _ := ZeroLoadResponse(d, array.OrgRAID5, false)
	w, _ := ZeroLoadResponse(d, array.OrgRAID5, true)
	m, err := ZeroLoadMean(d, array.OrgRAID5, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.75*r + 0.25*w
	if math.Abs(m-want) > 1e-12 {
		t.Fatalf("mean %f, want %f", m, want)
	}
}

// TestPlacementRuleMatchesPaper reproduces the section 4.2.3 arithmetic:
// "In the workload of Trace 1, we have w = 0.1. Hence ... for N > 10 the
// parity area should be placed in the middle of the disk while for
// N < 10 it should be placed at the end."
func TestPlacementRuleMatchesPaper(t *testing.T) {
	if RecommendPlacement(5, 0.1) != layout.EndPlacement {
		t.Error("N=5, w=0.1: rule should say end")
	}
	if RecommendPlacement(15, 0.1) != layout.MiddlePlacement {
		t.Error("N=15, w=0.1: rule should say middle")
	}
	if RecommendPlacement(20, 0.1) != layout.MiddlePlacement {
		t.Error("N=20, w=0.1: rule should say middle")
	}
	// Trace 2: w = 0.28 -> cutover just above N=3.
	if RecommendPlacement(10, 0.28) != layout.MiddlePlacement {
		t.Error("N=10, w=0.28: rule should say middle")
	}
	if ParityHotterThanData(10, 0.1) {
		t.Error("w == 1/N boundary should not count as hotter")
	}
}

func TestAreaFractions(t *testing.T) {
	if got := DataAreaAccessFraction(10); math.Abs(got-0.01) > 1e-12 {
		t.Fatalf("data area fraction %f", got)
	}
	if got := ParityAreaAccessFraction(10, 0.3); math.Abs(got-0.03) > 1e-12 {
		t.Fatalf("parity area fraction %f", got)
	}
}
