// Package ode provides the ordinary-differential-equation integrators used
// to simulate self-organizing logic circuits. The circuit layer produces an
// explicit system ẋ = F(t, x); this package supplies fixed-step explicit
// methods (Euler, Heun, RK4), an adaptive embedded Runge-Kutta (Cash-Karp
// 4(5)), and an implicit trapezoidal method with a damped Newton iteration
// for stiff configurations, together with a driver that integrates until a
// caller-supplied stopping condition fires.
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

// Stats accumulates integration effort counters.
type Stats struct {
	Steps      int // accepted steps
	Rejected   int // rejected adaptive steps
	FEvals     int // right-hand-side evaluations
	JacEvals   int // Jacobian evaluations (implicit methods)
	NewtonIts  int // total Newton iterations (implicit methods)
	Refactors  int // linear-operator factorizations (IMEX/quasi-static cache refreshes)
	FactorHits int // steps served from the existing shifted factor (IMEX)
}

func (s Stats) String() string {
	return fmt.Sprintf("steps=%d rejected=%d fevals=%d jac=%d newton=%d refactors=%d fhits=%d",
		s.Steps, s.Rejected, s.FEvals, s.JacEvals, s.NewtonIts, s.Refactors, s.FactorHits)
}

// ErrStepFailure is returned when a step cannot be completed (Newton
// divergence, NaN state, or step size underflow).
var ErrStepFailure = errors.New("ode: step failure")

// clampPositive guards against zero/negative or NaN step sizes.
func validStep(h float64) error {
	if !(h > 0) {
		return fmt.Errorf("%w: nonpositive step h=%v", ErrStepFailure, h)
	}
	return nil
}
