// Package ode provides the integration driver used to simulate
// self-organizing logic circuits. The circuit layer produces an explicit
// system ẋ = F(t, x); this package supplies the Stepper interface and the
// driver that integrates until a caller-supplied stopping condition fires,
// with a step-size ramp for steppers that report a stability bound and
// retry on failed or non-finite steps. The one production stepper, the
// IMEX scheme on the capacitive form, lives in the circuit package.
package ode

import (
	"errors"
	"fmt"

	"repro/internal/la"
)

// System is the right-hand side of ẋ = F(t, x). Implementations write the
// derivative into dxdt and must not retain x or dxdt.
type System interface {
	// Dim returns the state dimension.
	Dim() int
	// Derivative evaluates F(t, x) into dxdt.
	Derivative(t float64, x, dxdt la.Vector)
}

// Func adapts a plain function to the System interface.
type Func struct {
	N int
	F func(t float64, x, dxdt la.Vector)
}

// Dim returns the state dimension.
func (f Func) Dim() int { return f.N }

// Derivative evaluates the wrapped function.
func (f Func) Derivative(t float64, x, dxdt la.Vector) { f.F(t, x, dxdt) }

// Stepper advances the state by one step of size h.
type Stepper interface {
	// Step advances x in place from time t by h, or returns an error on
	// failure.
	Step(sys System, t, h float64, x la.Vector) error
	// Name identifies the method in reports.
	Name() string
}

// Bounded is implemented by a Stepper whose explicit part
// is stable only below a step-size ceiling. The Driver starts such a
// stepper at H and grows h toward that ceiling (see Driver.Run).
type Bounded interface {
	// MaxStableStep returns the step-size ceiling, or 0 for none.
	MaxStableStep() float64
}

// Stats accumulates a stepper's effort counters. They count every step
// the stepper computes, rejected ones included; the accepted steps are
// the driver's count (Result.Steps).
type Stats struct {
	FEvals    int // right-hand-side evaluations
	Refactors int // linear-operator factorizations (IMEX: one per step)
}

func (s Stats) String() string {
	return fmt.Sprintf("fevals=%d refactors=%d", s.FEvals, s.Refactors)
}

// ErrStepFailure is returned when a step cannot be completed (a failed
// linear solve, or step size underflow).
var ErrStepFailure = errors.New("ode: step failure")
