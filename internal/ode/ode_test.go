package ode

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/la"
)

// expDecay is ẋ = -x with solution x(t) = x0 e^{-t}.
var expDecay = Func{N: 1, F: func(t float64, x, dxdt la.Vector) { dxdt[0] = -x[0] }}

// harmonic is the 2-D oscillator ẋ = y, ẏ = -x (circle trajectories).
var harmonic = Func{N: 2, F: func(t float64, x, dxdt la.Vector) {
	dxdt[0] = x[1]
	dxdt[1] = -x[0]
}}

// stiffDecay is ẋ = -1000(x - cos t) - sin t with solution x(t)=cos t for
// x(0)=1; classic stiff test.
var stiffDecay = Func{N: 1, F: func(t float64, x, dxdt la.Vector) {
	dxdt[0] = -1000*(x[0]-math.Cos(t)) - math.Sin(t)
}}

// euler is a test-local forward Euler stepper, the vehicle for the driver
// tests: horizon landing, step budgets, Observe counts, NaN rejection and
// retry, steady-state detection and cancellation all want a stepper whose
// step count is known in advance.
type euler struct{ k la.Vector }

func (e *euler) Name() string { return "euler" }
func (e *euler) Step(sys System, t, h float64, x la.Vector) error {
	if !(h > 0) {
		return fmt.Errorf("%w: nonpositive step h=%v", ErrStepFailure, h)
	}
	if len(e.k) != len(x) {
		e.k = la.NewVector(len(x))
	}
	sys.Derivative(t, x, e.k)
	x.AXPY(h, e.k)
	return nil
}

func integrateTo(t *testing.T, s Stepper, sys System, x la.Vector, tEnd, h float64) {
	t.Helper()
	d := &Driver{Stepper: s, H: h, TEnd: tEnd}
	res := d.Run(sys, 0, x)
	if res.Reason != StopTEnd {
		t.Fatalf("%s: run ended with %v (err=%v), want t-end", s.Name(), res.Reason, res.Err)
	}
}

func TestEulerExpDecay(t *testing.T) {
	x := la.Vector{1}
	integrateTo(t, &euler{}, expDecay, x, 1, 1e-4)
	if math.Abs(x[0]-math.Exp(-1)) > 1e-3 {
		t.Fatalf("x(1) = %v, want %v", x[0], math.Exp(-1))
	}
}

func TestEulerUnstableOnStiff(t *testing.T) {
	// A fixed-step explicit method at h=0.05 blows up on the stiff
	// problem (the Driver detects NaN/divergence or the value is grossly
	// wrong).
	x := la.Vector{1}
	d := &Driver{Stepper: &euler{}, H: 0.05, TEnd: 2, MaxSteps: 100}
	res := d.Run(stiffDecay, 0, x)
	diverged := res.Reason == StopError || math.Abs(x[0]) > 10
	if !diverged && math.Abs(x[0]-math.Cos(2)) < 1e-3 {
		t.Fatal("explicit Euler unexpectedly stable on stiff system at h=0.05")
	}
}

func TestDriverStopCondition(t *testing.T) {
	x := la.Vector{1}
	d := &Driver{
		Stepper: &euler{}, H: 1e-3, TEnd: 100,
		Stop: func(t float64, x la.Vector) bool { return x[0] < 0.5 },
	}
	res := d.Run(expDecay, 0, x)
	if res.Reason != StopCondition {
		t.Fatalf("reason %v, want condition", res.Reason)
	}
	// Should stop near t = ln 2.
	if math.Abs(res.T-math.Ln2) > 0.01 {
		t.Fatalf("stopped at t=%v, want ~%v", res.T, math.Ln2)
	}
}

func TestDriverMaxSteps(t *testing.T) {
	x := la.Vector{1}
	d := &Driver{Stepper: &euler{}, H: 1e-3, MaxSteps: 10}
	res := d.Run(expDecay, 0, x)
	if res.Reason != StopMaxSteps {
		t.Fatalf("reason %v, want max-steps", res.Reason)
	}
}

func TestDriverObserve(t *testing.T) {
	x := la.Vector{1}
	var calls int
	d := &Driver{
		Stepper: &euler{}, H: 0.1, TEnd: 1,
		Observe: func(t float64, x la.Vector) { calls++ },
	}
	if res := d.Run(expDecay, 0, x); res.Reason != StopTEnd {
		t.Fatalf("reason %v", res.Reason)
	}
	// 10 full steps plus possibly one rounding-sliver step at the horizon.
	if calls < 10 || calls > 11 {
		t.Fatalf("Observe called %d times, want 10 or 11", calls)
	}
}

func TestSteadyStateDetector(t *testing.T) {
	x := la.Vector{1}
	sys := expDecay
	d := &Driver{
		Stepper: &euler{}, H: 0.01, TEnd: 1000,
		Stop: SteadyState(sys, 1e-6, 3),
	}
	res := d.Run(sys, 0, x)
	if res.Reason != StopCondition {
		t.Fatalf("reason %v, want condition", res.Reason)
	}
	if math.Abs(x[0]) > 1e-5 {
		t.Fatalf("steady state fired at x=%v, expected near 0", x[0])
	}
}

func TestNaNRecoveryThenFailure(t *testing.T) {
	// A system that always produces NaN must end with StopError, not hang.
	bad := Func{N: 1, F: func(t float64, x, dxdt la.Vector) { dxdt[0] = math.NaN() }}
	x := la.Vector{1}
	d := &Driver{Stepper: &euler{}, H: 1, TEnd: 10}
	res := d.Run(bad, 0, x)
	if res.Reason != StopError {
		t.Fatalf("reason %v, want error", res.Reason)
	}
}

func TestStepperNames(t *testing.T) {
	if (&euler{}).Name() == "" {
		t.Fatal("empty stepper name")
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Steps: 3, FEvals: 12, Refactors: 2}
	out := s.String()
	for _, want := range []string{"steps=3", "fevals=12", "refactors=2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Stats.String() = %q missing %q", out, want)
		}
	}
}

func TestStopReasonStrings(t *testing.T) {
	cases := map[StopReason]string{
		StopCondition: "condition", StopTEnd: "t-end",
		StopMaxSteps: "max-steps", StopError: "error", StopNone: "none",
		StopCancelled: "cancelled",
	}
	for r, want := range cases {
		if r.String() != want {
			t.Fatalf("%d.String() = %q, want %q", r, r.String(), want)
		}
	}
}

func TestDriverRejectsZeroStep(t *testing.T) {
	s := &euler{}
	x := la.Vector{1}
	if err := s.Step(expDecay, 0, 0, x); err == nil {
		t.Fatal("accepted h=0")
	}
	if err := s.Step(expDecay, 0, -1, x); err == nil {
		t.Fatal("accepted h<0")
	}
}
