package circuit

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/invariant"
	"repro/internal/la"
	"repro/internal/ode"
	"repro/internal/solg"
)

func buildGateCap(t *testing.T, kind solg.Kind, outBit bool) *Circuit {
	t.Helper()
	b := NewBuilder(Default())
	n1, n2, no := b.Node(), b.Node(), b.Node()
	b.AddGate(kind, n1, n2, no)
	b.PinBit(no, outBit)
	return b.Build()
}

// VerifyState must attribute a poisoned state block to the right device
// family, index and step.
func TestVerifyStateAttribution(t *testing.T) {
	c := buildGateCap(t, solg.AND, true)

	poison := func(x la.Vector, idx int, val float64) la.Vector {
		y := x.Clone()
		y[idx] = val
		return y
	}
	rng := rand.New(rand.NewSource(1))

	t.Run("capacitive/mem-state", func(t *testing.T) {
		x := c.InitialState(rng)
		err := c.VerifyState(2.5, 9, poison(x, c.xOff()+2, 1.5))
		var v *invariant.Violation
		if !errors.As(err, &v) {
			t.Fatalf("expected a violation, got %v", err)
		}
		if v.Check != "mem-state" || v.Device != "memristor" || v.Index != 2 || v.Step != 9 || v.T != 2.5 {
			t.Errorf("misattributed: %+v", v)
		}
	})
	t.Run("capacitive/voltage-bound", func(t *testing.T) {
		x := c.InitialState(rng)
		err := c.VerifyState(1, 4, poison(x, c.vOff(), -2*VBoundFactor*c.Params.Vc))
		var v *invariant.Violation
		if !errors.As(err, &v) {
			t.Fatalf("expected a violation, got %v", err)
		}
		if v.Check != "voltage-bound" || v.Device != "free-node" || v.Step != 4 {
			t.Errorf("misattributed: %+v", v)
		}
		// Index is remapped from the free-voltage slot to the circuit node.
		if v.Index != c.nodeOfFree(0) {
			t.Errorf("Index = %d, want circuit node %d", v.Index, c.nodeOfFree(0))
		}
	})
	t.Run("capacitive/current-bound", func(t *testing.T) {
		x := c.InitialState(rng)
		bad := 2 * IBoundFactor * c.Params.DCG.IMax
		err := c.VerifyState(3, 11, poison(x, c.iOff()+1, bad))
		var v *invariant.Violation
		if !errors.As(err, &v) {
			t.Fatalf("expected a violation, got %v", err)
		}
		if v.Check != "current-bound" || v.Device != "vcdcg-current" || v.Index != 1 || v.Step != 11 {
			t.Errorf("misattributed: %+v", v)
		}
	})
	t.Run("capacitive/bistable-finite", func(t *testing.T) {
		x := c.InitialState(rng)
		err := c.VerifyState(3, 12, poison(x, c.sOff(), math.NaN()))
		var v *invariant.Violation
		if !errors.As(err, &v) {
			t.Fatalf("expected a violation, got %v", err)
		}
		if v.Check != "finite" || v.Device != "vcdcg-bistable" || v.Index != 0 {
			t.Errorf("misattributed: %+v", v)
		}
	})
	t.Run("clean states verify", func(t *testing.T) {
		if err := c.VerifyState(0, 1, c.InitialState(rng)); err != nil {
			t.Errorf("capacitive initial state: %v", err)
		}
	})
}

// Integration test: a deliberately blown bound mid-run must stop the
// driver with a Violation carrying the device, index and step at which
// the corruption was planted — the diagnosable-report contract.
func TestDriverVerifyCatchesBlownBound(t *testing.T) {
	c := buildGateCap(t, solg.OR, true)
	x := c.InitialState(rand.New(rand.NewSource(2)))

	const sabotageStep = 25
	step := 0
	d := &ode.Driver{
		Stepper: NewIMEX(c, nil), H: 1e-3, TEnd: 100,
		Observe: func(tt float64, x la.Vector) {
			c.ClampState(x)
			step++
			if step == sabotageStep {
				x[c.xOff()+1] = 1.75 // blow the memristor bound after clamping
			}
		},
		Verify: func(tt float64, x la.Vector) error {
			return c.VerifyState(tt, step, x)
		},
	}
	res := d.Run(c, 0, x)
	if res.Reason != ode.StopError {
		t.Fatalf("run ended with %v, want StopError", res.Reason)
	}
	var v *invariant.Violation
	if !errors.As(res.Err, &v) {
		t.Fatalf("driver error %v does not wrap a *invariant.Violation", res.Err)
	}
	if v.Check != "mem-state" || v.Device != "memristor" || v.Index != 1 || v.Step != sabotageStep {
		t.Errorf("violation misattributed: %+v", v)
	}
	if got := v.Error(); got == "" {
		t.Error("empty violation message")
	}
}

// A healthy integration must pass per-step verification end to end on
// both engines (this is what -tags dmminvariant turns on globally).
func TestDriverVerifyCleanRun(t *testing.T) {
	c := buildGateCap(t, solg.NAND, false)
	x := c.InitialState(rand.New(rand.NewSource(3)))
	step := 0
	d := &ode.Driver{
		Stepper: NewIMEX(c, nil), H: 1e-3, TEnd: 50,
		Observe: func(tt float64, x la.Vector) { c.ClampState(x) },
		Verify: func(tt float64, x la.Vector) error {
			step++
			return c.VerifyState(tt, step, x)
		},
		Stop: func(tt float64, x la.Vector) bool {
			return tt > c.Params.TRise && c.Converged(tt, x, 0.02)
		},
	}
	res := d.Run(c, 0, x)
	if res.Reason == ode.StopError {
		t.Fatalf("invariant violation on a healthy run: %v", res.Err)
	}
	if step == 0 {
		t.Fatal("Verify hook never ran")
	}
}
