package ode

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/la"
	"repro/internal/obs"
)

// StopReason reports why an integration run ended.
type StopReason int

// Stop reasons returned by Driver.Run.
const (
	StopNone      StopReason = iota
	StopCondition            // the caller's stop condition fired
	StopTEnd                 // reached the time horizon
	StopError                // a step failed irrecoverably
	StopCancelled            // the driver's context was cancelled
)

func (r StopReason) String() string {
	switch r {
	case StopCondition:
		return "condition"
	case StopTEnd:
		return "t-end"
	case StopError:
		return "error"
	case StopCancelled:
		return "cancelled"
	default:
		return "none"
	}
}

// Driver integrates a state with a Stepper until a stop condition fires
// or the horizon is reached.
type Driver struct {
	Stepper Stepper
	// H is the initial step size. The run starts at H and grows h ×1.1
	// per accepted step up to min(HMax, Stepper.MaxStableStep()) when
	// that exceeds H; otherwise it runs at H. A failed or non-finite
	// step shrinks h ×0.25, and only the ramp grows it back; the run
	// fails once h falls below 1e-6·H. HMax ≤ 0 means 1e3·H.
	H, HMax float64
	TEnd    float64 // time horizon (0 means unbounded)

	// Ctx, when non-nil, is polled every loop iteration; once it is
	// cancelled (or its deadline passes) the run ends with StopCancelled.
	Ctx context.Context

	// Obs, when non-nil, receives accepted/rejected step telemetry. The
	// driver is the single authority on acceptance, so it owns the
	// Accept/Reject hooks.
	Obs *obs.StepObs

	// Observe, when non-nil, is invoked after every accepted step.
	Observe func(t float64, x la.Vector)
	// Verify, when non-nil, validates the state after every accepted step,
	// after Observe; a non-nil error — typically an *invariant.Violation —
	// ends the run with StopError.
	Verify func(t float64, x la.Vector) error
	// Stop, when non-nil, is checked after every accepted step; returning
	// true ends the run with StopCondition.
	Stop func(t float64, x la.Vector) bool

	// backup is the pre-step state a rejected step restores. Run
	// allocates it on its first call and reuses it while the state
	// length stays the same.
	backup la.Vector
}

// Result summarizes an integration run.
type Result struct {
	T      float64
	Steps  int // accepted steps
	Reason StopReason
	Err    error
}

// ErrNaNState is returned when the state becomes NaN/Inf.
var ErrNaNState = errors.New("ode: state became NaN or Inf")

// Run integrates x in place starting at time t0 and returns the final time
// and stop reason. Runs of one Driver must not overlap: they share its
// rejection backup.
func (d *Driver) Run(t0 float64, x la.Vector) Result {
	if d.Stepper == nil {
		panic("ode: Driver requires a Stepper")
	}
	h := d.H
	if h <= 0 {
		panic("ode: Driver requires H > 0")
	}
	hMin, hMax := h*1e-6, d.HMax
	if hMax <= 0 {
		hMax = h * 1e3
	}
	// hCap is the ramp ceiling. It stays 0 (no ramp: h keeps its value,
	// as after a failed step) when the stepper reports no bound or the
	// bound or HMax does not exceed H.
	hCap := 0.0
	if c := math.Min(hMax, d.Stepper.MaxStableStep()); c > h {
		hCap = c
	}
	t := t0
	steps := 0
	if len(d.backup) != len(x) {
		d.backup = la.NewVector(len(x))
	}
	backup := d.backup
	for {
		if d.Ctx != nil && d.Ctx.Err() != nil {
			return Result{T: t, Steps: steps, Reason: StopCancelled, Err: d.Ctx.Err()}
		}
		if d.TEnd > 0 && t >= d.TEnd {
			return Result{T: t, Steps: steps, Reason: StopTEnd}
		}
		hTry := h
		if d.TEnd > 0 && t+hTry > d.TEnd {
			hTry = d.TEnd - t
		}
		backup.CopyFrom(x)
		if err := d.Stepper.Step(t, hTry, x); err != nil {
			// Retry with a smaller step for transient failures.
			d.Obs.Reject()
			x.CopyFrom(backup)
			h *= 0.25
			if h < hMin {
				return Result{T: t, Steps: steps, Reason: StopError, Err: fmt.Errorf("step size underflow: %w", err)}
			}
			continue
		}
		if x.HasNaN() {
			d.Obs.Reject()
			x.CopyFrom(backup)
			h *= 0.25
			if h < hMin {
				return Result{T: t, Steps: steps, Reason: StopError, Err: ErrNaNState}
			}
			continue
		}
		if h < hCap {
			h = math.Min(h*1.1, hCap)
		}
		t += hTry
		steps++
		// Accept bookkeeping and the caller's observe/verify/stop hooks
		// (physics probes, invariant envelopes, convergence predicates)
		// are the step's out-of-stepper tail; the span profiler charges
		// them to the bookkeeping phase.
		btok := d.Obs.SpanBegin()
		d.Obs.Accept(hTry)
		if d.Observe != nil {
			d.Observe(t, x)
		}
		var verr error
		if d.Verify != nil {
			verr = d.Verify(t, x)
		}
		stop := verr == nil && d.Stop != nil && d.Stop(t, x)
		d.Obs.SpanEnd(obs.PhaseBookkeep, btok)
		if verr != nil {
			return Result{T: t, Steps: steps, Reason: StopError, Err: verr}
		}
		if stop {
			return Result{T: t, Steps: steps, Reason: StopCondition}
		}
	}
}
