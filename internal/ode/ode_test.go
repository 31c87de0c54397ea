package ode

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/la"
)

// decay is a fake stepper for ẋ = −x: each call takes one forward-Euler
// step x ← x − h·x, so a run's step count and trajectory are known in
// advance. It reports no stability bound.
type decay struct{}

func (decay) Step(t, h float64, x la.Vector) error { x[0] -= h * x[0]; return nil }
func (decay) MaxStableStep() float64               { return 0 }

// failing is a fake stepper whose every step either returns err or, when
// err is nil, poisons the state with NaN. It counts its calls.
type failing struct {
	err   error
	calls int
}

func (f *failing) Step(t, h float64, x la.Vector) error {
	f.calls++
	if f.err != nil {
		x[0] = 42 // a failed step may leave garbage; the driver restores x
		return f.err
	}
	x[0] = math.NaN()
	return nil
}
func (f *failing) MaxStableStep() float64 { return 0 }

func TestDriverStopCondition(t *testing.T) {
	x := la.Vector{1}
	d := &Driver{
		Stepper: decay{}, H: 1e-3, TEnd: 100,
		Stop: func(t float64, x la.Vector) bool { return x[0] < 0.5 },
	}
	res := d.Run(0, x)
	if res.Reason != StopCondition {
		t.Fatalf("reason %v, want condition", res.Reason)
	}
	// Should stop near t = ln 2.
	if math.Abs(res.T-math.Ln2) > 0.01 {
		t.Fatalf("stopped at t=%v, want ~%v", res.T, math.Ln2)
	}
}

func TestDriverObserve(t *testing.T) {
	x := la.Vector{1}
	var calls int
	d := &Driver{
		Stepper: decay{}, H: 0.1, TEnd: 1,
		Observe: func(t float64, x la.Vector) { calls++ },
	}
	if res := d.Run(0, x); res.Reason != StopTEnd {
		t.Fatalf("reason %v", res.Reason)
	}
	// 10 full steps plus possibly one rounding-sliver step at the horizon.
	if calls < 10 || calls > 11 {
		t.Fatalf("Observe called %d times, want 10 or 11", calls)
	}
}

// TestNaNRecoveryThenFailure checks that a stepper that always produces
// NaN ends the run with StopError and ErrNaNState, not a hang, after
// the ten quartered retries that take h below 1e-6·H, with the state
// restored to its pre-step value.
func TestNaNRecoveryThenFailure(t *testing.T) {
	s := &failing{}
	x := la.Vector{1}
	d := &Driver{Stepper: s, H: 1, TEnd: 10}
	res := d.Run(0, x)
	if res.Reason != StopError || !errors.Is(res.Err, ErrNaNState) {
		t.Fatalf("reason %v (err %v), want error with ErrNaNState", res.Reason, res.Err)
	}
	if s.calls != 10 || res.Steps != 0 || x[0] != 1 {
		t.Fatalf("%d calls, %d steps, x = %v; want 10 rejected calls and x restored to 1", s.calls, res.Steps, x[0])
	}
}

// TestDriverStepErrorUnderflow checks that a failing step is retried at
// a quarter of its h until h falls below 1e-6·H, and that the run then
// ends with StopError wrapping the stepper's error.
func TestDriverStepErrorUnderflow(t *testing.T) {
	errStep := errors.New("singular")
	s := &failing{err: errStep}
	x := la.Vector{1}
	d := &Driver{Stepper: s, H: 1e-3, TEnd: 10}
	res := d.Run(0, x)
	if res.Reason != StopError || !errors.Is(res.Err, errStep) {
		t.Fatalf("reason %v (err %v), want error wrapping %v", res.Reason, res.Err, errStep)
	}
	if !strings.Contains(res.Err.Error(), "step size underflow") {
		t.Fatalf("err %q does not name the underflow", res.Err)
	}
	if s.calls != 10 || res.T != 0 || x[0] != 1 {
		t.Fatalf("%d calls, t = %v, x = %v; want 10 rejected calls at t = 0 and x restored to 1", s.calls, res.T, x[0])
	}
}

func TestStopReasonStrings(t *testing.T) {
	cases := map[StopReason]string{
		StopCondition: "condition", StopTEnd: "t-end",
		StopError: "error", StopNone: "none",
		StopCancelled: "cancelled",
	}
	for r, want := range cases {
		if r.String() != want {
			t.Fatalf("%d.String() = %q, want %q", r, r.String(), want)
		}
	}
}

// TestDriverCancelledBeforeStart checks an already-cancelled context stops
// the run before the first step.
func TestDriverCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	x := la.Vector{1}
	d := &Driver{Stepper: decay{}, H: 1e-3, TEnd: 10, Ctx: ctx}
	res := d.Run(0, x)
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
		Stepper: decay{}, H: 1e-3, TEnd: 1e9,
		Ctx: ctx,
		Observe: func(float64, la.Vector) {
			calls++
			if calls == 5 {
				cancel()
			}
		},
	}
	res := d.Run(0, x)
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
	d := &Driver{Stepper: decay{}, H: 0.1, TEnd: 1}
	if res := d.Run(0, x); res.Reason != StopTEnd {
		t.Fatalf("reason %v, want t-end", res.Reason)
	}
}
