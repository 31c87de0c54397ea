// Package ode provides the integration driver used to simulate
// self-organizing logic circuits. The circuit layer produces an explicit
// system ẋ = F(t, x); this package supplies the Stepper interface, the
// driver that integrates until a caller-supplied stopping condition fires
// (with step-size control for adaptive steppers, a step-size ramp for
// fixed-step steppers that report a stability bound, and retry on failed
// or non-finite steps), and the adaptive embedded Runge-Kutta (Cash-Karp
// 4(5)) that serves the quasi-static form. The production stepper, the
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
	// Step advances x in place from time t by h and returns an error
	// estimate (0 for non-embedded methods) or an error on failure.
	Step(sys System, t, h float64, x la.Vector) (errEst float64, err error)
	// Name identifies the method in reports.
	Name() string
	// Adaptive reports whether Step's error estimate is meaningful.
	Adaptive() bool
}

// Bounded is implemented by a non-adaptive Stepper whose explicit part
// is stable only below a step-size ceiling. The Driver starts such a
// stepper at H and grows h toward that ceiling (see Driver.Run).
type Bounded interface {
	// MaxStableStep returns the step-size ceiling, or 0 for none.
	MaxStableStep() float64
}

// Stats accumulates integration effort counters.
type Stats struct {
	Steps     int // accepted steps
	Rejected  int // rejected adaptive steps
	FEvals    int // right-hand-side evaluations
	JacEvals  int // Jacobian evaluations (IMEX refactorizations)
	Refactors int // linear-operator factorizations (IMEX: one per step)
}

func (s Stats) String() string {
	return fmt.Sprintf("steps=%d rejected=%d fevals=%d jac=%d refactors=%d",
		s.Steps, s.Rejected, s.FEvals, s.JacEvals, s.Refactors)
}

// ErrStepFailure is returned when a step cannot be completed (a
// nonpositive step, a failed linear solve, or step size underflow).
var ErrStepFailure = errors.New("ode: step failure")

// validStep guards against zero/negative or NaN step sizes.
func validStep(h float64) error {
	if !(h > 0) {
		return fmt.Errorf("%w: nonpositive step h=%v", ErrStepFailure, h)
	}
	return nil
}
