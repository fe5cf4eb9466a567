// Package model provides the closed-form performance estimates the
// paper's related work reasons with: zero-load (minimum) response times
// per organization in the style of Gray et al. and the parity-placement
// rule of section 4.2.3. The simulator is the ground truth; these models
// exist to sanity-check it (and are compared against it by the ext-model
// experiment).
package model

import (
	"fmt"

	"raidsim/internal/array"
	"raidsim/internal/geom"
	"raidsim/internal/sim"
)

// Device bundles the drive and channel parameters the formulas need.
type Device struct {
	Spec geom.Spec
	Seek geom.SeekModel
}

// NewDevice builds a Device, calibrating the seek curve.
func NewDevice(spec geom.Spec) (Device, error) {
	m, err := geom.CalibrateSeek(spec)
	if err != nil {
		return Device{}, err
	}
	return Device{Spec: spec, Seek: m}, nil
}

// AvgSeekMS returns the calibrated average seek time.
func (d Device) AvgSeekMS() float64 { return d.Spec.AvgSeekMS }

// HalfRotationMS returns the mean rotational latency.
func (d Device) HalfRotationMS() float64 {
	return sim.Millis(d.Spec.RotationTime()) / 2
}

// RotationMS returns one full revolution.
func (d Device) RotationMS() float64 { return sim.Millis(d.Spec.RotationTime()) }

// TransferMS returns the media transfer time for n blocks.
func (d Device) TransferMS(n int) float64 {
	return sim.Millis(d.Spec.BlockTransferTime()) * float64(n)
}

// ChannelMS returns the channel transfer time for n blocks.
func (d Device) ChannelMS(n int) float64 {
	return sim.Millis(d.Spec.ChannelTime(n))
}

// accessMS is the canonical single-disk access: seek + rotational latency
// + media transfer.
func (d Device) accessMS(blocks int) float64 {
	return d.AvgSeekMS() + d.HalfRotationMS() + d.TransferMS(blocks)
}

// rmwMS is the read-modify-write access: after the old-data read pass the
// head waits a full rotation to overwrite in place.
func (d Device) rmwMS(blocks int) float64 {
	return d.AvgSeekMS() + d.HalfRotationMS() + d.RotationMS() + d.TransferMS(blocks)
}

// ZeroLoadResponse estimates the no-queueing response time (ms) of a
// single-block request under each organization, in the spirit of Gray et
// al.'s minimum response time analysis. Writes in the parity
// organizations use the Disk First picture: the parity read-modify-write
// begins once the data access holds its disk, so at zero load the two
// proceed in parallel and the RMW pair bounds the response.
func ZeroLoadResponse(d Device, org array.Org, write bool) (float64, error) {
	ch := d.ChannelMS(1)
	switch org {
	case array.OrgBase:
		return d.accessMS(1) + ch, nil
	case array.OrgMirror:
		if !write {
			// The nearer of two arms serves the read: the expected
			// shorter seek of two independent arms is roughly 2/3 of the
			// single-arm average (exact for a linear seek curve and
			// uniform positions; good enough for an estimate).
			return d.AvgSeekMS()*2/3 + d.HalfRotationMS() + d.TransferMS(1) + ch, nil
		}
		// Both copies written; response is the max of two i.i.d.
		// accesses ~ access + half the rotational spread.
		return d.accessMS(1) + d.HalfRotationMS()/2 + ch, nil
	case array.OrgRAID5, array.OrgRAID4, array.OrgParityStriping:
		if !write {
			return d.accessMS(1) + ch, nil
		}
		// Data RMW and parity RMW in parallel; parity additionally waits
		// for the old-data read before its in-place write can land, which
		// at zero load is already covered by its own full rotation.
		return d.rmwMS(1) + ch, nil
	}
	return 0, fmt.Errorf("model: unknown organization %v", org)
}

// ZeroLoadMean combines read and write estimates with a write fraction.
func ZeroLoadMean(d Device, org array.Org, writeFrac float64) (float64, error) {
	r, err := ZeroLoadResponse(d, org, false)
	if err != nil {
		return 0, err
	}
	w, err := ZeroLoadResponse(d, org, true)
	if err != nil {
		return 0, err
	}
	return (1-writeFrac)*r + writeFrac*w, nil
}
