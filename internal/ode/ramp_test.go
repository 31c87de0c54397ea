package ode

import (
	"math"
	"testing"

	"repro/internal/la"
)

// recordStepper is a fixed-step stepper that leaves the state alone and
// records every h the driver hands it; the call numbered nanAt (1-based)
// poisons the state so the driver must reject it.
type recordStepper struct {
	hs    []float64
	nanAt int
}

func (r *recordStepper) Name() string { return "record" }
func (r *recordStepper) Step(sys System, t, h float64, x la.Vector) error {
	r.hs = append(r.hs, h)
	if len(r.hs) == r.nanAt {
		x[0] = math.NaN()
	}
	return nil
}

func (r *recordStepper) steps() []float64 { return r.hs }

// boundedStepper is a recordStepper that reports a stability bound.
type boundedStepper struct {
	recordStepper
	bound float64
}

func (b *boundedStepper) MaxStableStep() float64 { return b.bound }

// stepRecorder is a Stepper that reports the step sizes it was handed.
type stepRecorder interface {
	Stepper
	steps() []float64
}

// runSteps drives s for n accepted steps from H = h0 with the given HMax
// and returns every step size it was handed, rejected ones included.
func runSteps(t *testing.T, s stepRecorder, h0, hMax float64, n int) []float64 {
	t.Helper()
	d := &Driver{Stepper: s, H: h0, HMax: hMax, MaxSteps: n}
	if res := d.Run(expDecay, 0, la.Vector{1}); res.Reason != StopMaxSteps {
		t.Fatalf("run ended with %v (err %v), want max-steps", res.Reason, res.Err)
	}
	return s.steps()
}

// TestDriverRampToBound checks the step policy for a fixed-step stepper
// that reports a bound: h runs H, 1.1H, 1.21H, … and is capped at
// min(HMax, bound), whichever is lower.
func TestDriverRampToBound(t *testing.T) {
	const h0 = 1e-3
	for _, tc := range []struct {
		name        string
		bound, hMax float64
		cap         float64
	}{
		{"bound below HMax", 5e-3, 0.1, 5e-3},
		{"HMax below bound", 0.1, 2e-3, 2e-3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hs := runSteps(t, &boundedStepper{bound: tc.bound}, h0, tc.hMax, 40)
			want := h0
			for k, h := range hs {
				if h != want {
					t.Fatalf("step %d: h = %v, want %v (steps %v)", k, h, want, hs[:k+1])
				}
				want = math.Min(want*1.1, tc.cap)
			}
			if last := hs[len(hs)-1]; last != tc.cap {
				t.Fatalf("h ended at %v after %d steps, want the cap %v", last, len(hs), tc.cap)
			}
		})
	}
}

// TestDriverRampRecoversFromNaN checks that a non-finite step is retried
// at a quarter of its h and the ramp then grows h again from there.
func TestDriverRampRecoversFromNaN(t *testing.T) {
	const h0 = 1e-3
	s := &boundedStepper{recordStepper: recordStepper{nanAt: 5}, bound: 1}
	hs := runSteps(t, s, h0, 0.1, 12)
	if len(hs) != 13 {
		t.Fatalf("%d step calls, want 12 accepted plus 1 rejected", len(hs))
	}
	if hs[5] != 0.25*hs[4] {
		t.Fatalf("retry after the NaN step used h = %v, want %v", hs[5], 0.25*hs[4])
	}
	for k := 6; k < len(hs); k++ {
		if hs[k] != hs[k-1]*1.1 {
			t.Fatalf("step %d after the retry: h = %v, want %v", k, hs[k], hs[k-1]*1.1)
		}
	}
}

// TestDriverFixedStepWithoutRamp checks the cases that keep a fixed h: a
// bounded stepper with HMax == H, a bounded stepper whose bound is below
// H (the ceiling never lowers h under H), and a stepper that reports no
// bound, which after a NaN step stays at the quarter step.
func TestDriverFixedStepWithoutRamp(t *testing.T) {
	const h0 = 1e-3
	for _, tc := range []struct {
		name string
		s    stepRecorder
		hMax float64
	}{
		{"HMax equals H", &boundedStepper{bound: 1}, h0},
		{"bound below H", &boundedStepper{bound: h0 / 2}, 0.1},
		{"no bound", &recordStepper{}, 0.1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for k, h := range runSteps(t, tc.s, h0, tc.hMax, 20) {
				if h != h0 {
					t.Fatalf("step %d: h = %v, want the fixed %v", k, h, h0)
				}
			}
		})
	}
	hs := runSteps(t, &recordStepper{nanAt: 3}, h0, 0.1, 10)
	for k, h := range hs {
		want := h0
		if k > 2 {
			want = h0 / 4
		}
		if h != want {
			t.Fatalf("no bound, NaN on call 3: call %d h = %v, want %v", k+1, h, want)
		}
	}
}
