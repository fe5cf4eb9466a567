package model

import "raidsim/internal/layout"

// Section 4.2.3's parity placement model: with accesses uniform over
// disks and over each disk's data areas, any one of the N data areas on a
// disk receives 1/N^2 of the array's accesses, while a parity area
// receives w/N of them (every write touches a parity area; there are N+1
// parity areas over N+1 disks). Parity areas are therefore hotter than
// data areas iff w > 1/N, and only then does the center-of-disk placement
// pay off.

// DataAreaAccessFraction returns the fraction of the array's accesses
// that land on one data area.
func DataAreaAccessFraction(n int) float64 {
	return 1 / float64(n) / float64(n)
}

// ParityAreaAccessFraction returns the fraction of the array's accesses
// (counting the parity half of each update) that land on one parity area.
func ParityAreaAccessFraction(n int, writeFrac float64) float64 {
	return writeFrac / float64(n)
}

// ParityHotterThanData reports whether parity areas see more traffic than
// individual data areas: w > 1/N.
func ParityHotterThanData(n int, writeFrac float64) bool {
	return ParityAreaAccessFraction(n, writeFrac) > DataAreaAccessFraction(n)
}

// RecommendPlacement returns the placement the section 4.2.3 rule
// predicts: middle cylinders when the parity area is the hottest thing on
// the disk (w > 1/N), the end of the disk otherwise (keeping the data
// areas contiguous for seek affinity).
func RecommendPlacement(n int, writeFrac float64) layout.Placement {
	if ParityHotterThanData(n, writeFrac) {
		return layout.MiddlePlacement
	}
	return layout.EndPlacement
}
