package ode

import (
	"context"
	"math"
	"testing"

	"repro/internal/la"
)

// fixedStepError integrates the harmonic oscillator from (1, 0) to t = 1
// with uniform steps of size h and returns the Euclidean error against the
// analytic solution (cos 1, −sin 1).
func fixedStepError(t *testing.T, s Stepper, h float64) float64 {
	t.Helper()
	x := la.Vector{1, 0}
	steps := int(math.Round(1 / h))
	tt := 0.0
	for i := 0; i < steps; i++ {
		if _, err := s.Step(harmonic, tt, h, x); err != nil {
			t.Fatalf("%s: step %d failed: %v", s.Name(), i, err)
		}
		tt += h
	}
	return math.Hypot(x[0]-math.Cos(1), x[1]+math.Sin(1))
}

// TestConvergenceOrders measures each method's empirical order of accuracy
// by Richardson refinement: halving h must shrink the global error by a
// factor 2^p. The test-local Euler vehicle is first order, and the
// Cash-Karp pair propagates its fifth-order solution.
func TestConvergenceOrders(t *testing.T) {
	cases := []struct {
		name  string
		make  func() Stepper
		order float64
	}{
		{"euler", func() Stepper { return &euler{} }, 1},
		{"rk45", func() Stepper { return NewRK45(nil) }, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.make()
			e1 := fixedStepError(t, s, 0.05)
			e2 := fixedStepError(t, s, 0.025)
			if e2 >= e1 {
				t.Fatalf("refinement did not reduce error: %g -> %g", e1, e2)
			}
			p := math.Log2(e1 / e2)
			if math.Abs(p-tc.order) > 0.35 {
				t.Fatalf("empirical order %.2f, want %.0f (err %g -> %g)", p, tc.order, e1, e2)
			}
		})
	}
}

// TestDriverCancelledBeforeStart checks an already-cancelled context stops
// the run before the first step.
func TestDriverCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	x := la.Vector{1}
	d := &Driver{Stepper: &euler{}, H: 1e-3, TEnd: 10, Ctx: ctx}
	res := d.Run(expDecay, 0, x)
	if res.Reason != StopCancelled {
		t.Fatalf("reason %v, want cancelled", res.Reason)
	}
	if res.Err != context.Canceled {
		t.Fatalf("err %v, want context.Canceled", res.Err)
	}
	if res.T != 0 {
		t.Fatalf("integrated to t=%v under a cancelled context", res.T)
	}
	if x[0] != 1 {
		t.Fatalf("state mutated to %v under a cancelled context", x[0])
	}
}

// TestDriverCancelledMidRun cancels from inside the Observe callback and
// expects the driver to notice promptly — within one loop iteration.
func TestDriverCancelledMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	x := la.Vector{1}
	d := &Driver{
		Stepper: &euler{}, H: 1e-3, TEnd: 1e9,
		Ctx: ctx,
		Observe: func(float64, la.Vector) {
			calls++
			if calls == 5 {
				cancel()
			}
		},
	}
	res := d.Run(expDecay, 0, x)
	if res.Reason != StopCancelled {
		t.Fatalf("reason %v, want cancelled", res.Reason)
	}
	if calls != 5 {
		t.Fatalf("driver took %d further steps after cancellation", calls-5)
	}
	if math.Abs(res.T-5e-3) > 1e-9 {
		t.Fatalf("stopped at t=%v, want 5e-3", res.T)
	}
}

// TestDriverNilContext confirms the zero-value Driver (no Ctx) still runs
// to the horizon: cancellation is strictly opt-in.
func TestDriverNilContext(t *testing.T) {
	x := la.Vector{1}
	d := &Driver{Stepper: &euler{}, H: 0.1, TEnd: 1}
	if res := d.Run(expDecay, 0, x); res.Reason != StopTEnd {
		t.Fatalf("reason %v, want t-end", res.Reason)
	}
}
