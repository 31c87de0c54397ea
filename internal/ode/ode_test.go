package ode

import (
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

// euler is a test-local forward Euler stepper, the fixed-step vehicle for
// the driver tests: horizon landing, step budgets, Observe counts, NaN
// rejection and retry, and cancellation all want a non-adaptive stepper
// whose step count is known in advance.
type euler struct{ k la.Vector }

func (e *euler) Name() string   { return "euler" }
func (e *euler) Adaptive() bool { return false }
func (e *euler) Step(sys System, t, h float64, x la.Vector) (float64, error) {
	if err := validStep(h); err != nil {
		return 0, err
	}
	if len(e.k) != len(x) {
		e.k = la.NewVector(len(x))
	}
	sys.Derivative(t, x, e.k)
	x.AXPY(h, e.k)
	return 0, nil
}

func integrateTo(t *testing.T, s Stepper, sys System, x la.Vector, tEnd, h float64) {
	t.Helper()
	d := &Driver{Stepper: s, H: h, TEnd: tEnd, Tol: 1e-8}
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

// TestRK45FixedStepAccuracy takes uniform Cash-Karp steps (no driver, so
// no step-size control): the propagated fifth-order solution must be
// accurate to 1e-9 at h = 1e-2.
func TestRK45FixedStepAccuracy(t *testing.T) {
	s := NewRK45(nil)
	x := la.Vector{1}
	for i := 0; i < 100; i++ {
		if _, err := s.Step(expDecay, float64(i)*1e-2, 1e-2, x); err != nil {
			t.Fatal(err)
		}
	}
	if math.Abs(x[0]-math.Exp(-1)) > 1e-9 {
		t.Fatalf("x(1) = %v, want %v (err %g)", x[0], math.Exp(-1), math.Abs(x[0]-math.Exp(-1)))
	}
}

func TestRK45Harmonic(t *testing.T) {
	x := la.Vector{1, 0}
	d := &Driver{Stepper: NewRK45(nil), H: 1e-3, TEnd: 2 * math.Pi, Tol: 1e-11}
	if res := d.Run(harmonic, 0, x); res.Reason != StopTEnd {
		t.Fatalf("reason %v, err %v", res.Reason, res.Err)
	}
	if math.Abs(x[0]-1) > 1e-8 || math.Abs(x[1]) > 1e-8 {
		t.Fatalf("after full period got (%v, %v), want (1, 0)", x[0], x[1])
	}
}

func TestRK45AdaptiveExpDecay(t *testing.T) {
	stats := &Stats{}
	x := la.Vector{1}
	d := &Driver{Stepper: NewRK45(stats), H: 1e-3, TEnd: 5, Tol: 1e-10}
	res := d.Run(expDecay, 0, x)
	if res.Reason != StopTEnd {
		t.Fatalf("reason %v, err %v", res.Reason, res.Err)
	}
	if math.Abs(x[0]-math.Exp(-5)) > 1e-7 {
		t.Fatalf("x(5) = %v, want %v", x[0], math.Exp(-5))
	}
	if stats.Steps == 0 {
		t.Fatal("no steps recorded")
	}
}

func TestRK45GrowsStep(t *testing.T) {
	// On a slow system the adaptive controller should take far fewer steps
	// than the fixed initial step would imply.
	stats := &Stats{}
	x := la.Vector{1}
	d := &Driver{Stepper: NewRK45(stats), H: 1e-4, TEnd: 1, Tol: 1e-6}
	if res := d.Run(expDecay, 0, x); res.Reason != StopTEnd {
		t.Fatalf("reason %v", res.Reason)
	}
	if stats.Steps > 2000 {
		t.Fatalf("adaptive controller took %d steps; expected far fewer than 10000", stats.Steps)
	}
}

// TestRK45Stiff starts the adaptive stepper at h = 0.05, far beyond the
// explicit stability limit (~3/1000) on the stiff problem: the driver
// must shrink the step until the error estimate is met — ten times below
// the initial h at least, so 2/0.05 = 40 steps become more than 400 —
// and still land on the smooth solution cos t.
func TestRK45Stiff(t *testing.T) {
	stats := &Stats{}
	x := la.Vector{1}
	d := &Driver{Stepper: NewRK45(stats), H: 0.05, TEnd: 2, Tol: 1e-8}
	res := d.Run(stiffDecay, 0, x)
	if res.Reason != StopTEnd {
		t.Fatalf("reason %v, err %v", res.Reason, res.Err)
	}
	if math.Abs(x[0]-math.Cos(2)) > 1e-3 {
		t.Fatalf("x(2) = %v, want %v", x[0], math.Cos(2))
	}
	if stats.Steps <= 400 {
		t.Fatalf("step control did not shrink h: %v", stats)
	}
}

func TestEulerUnstableOnStiff(t *testing.T) {
	// A fixed-step explicit method at h=0.05 blows up on the stiff
	// problem (the Driver detects NaN/divergence or the value is grossly
	// wrong); the adaptive RK45 above survives only by shrinking h.
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
		Stepper: NewRK45(nil), H: 0.01, TEnd: 1000,
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
	for _, s := range []Stepper{&euler{}, NewRK45(nil)} {
		if s.Name() == "" {
			t.Fatal("empty stepper name")
		}
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Steps: 3, Rejected: 1, FEvals: 12, JacEvals: 2}
	out := s.String()
	for _, want := range []string{"steps=3", "rejected=1", "fevals=12", "jac=2"} {
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
	for _, s := range []Stepper{&euler{}, NewRK45(nil)} {
		x := la.Vector{1}
		if _, err := s.Step(expDecay, 0, 0, x); err == nil {
			t.Fatalf("%s accepted h=0", s.Name())
		}
		if _, err := s.Step(expDecay, 0, -1, x); err == nil {
			t.Fatalf("%s accepted h<0", s.Name())
		}
	}
}
