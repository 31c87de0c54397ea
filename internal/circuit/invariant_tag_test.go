//go:build dmminvariant

package circuit

import (
	"math/rand"
	"testing"

	"repro/internal/invariant"
	"repro/internal/la"
	"repro/internal/ode"
	"repro/internal/solg"
)

// Under -tags dmminvariant the IMEX stepper checks its own voltage solve
// every step. A healthy solve must run to a logic equilibrium without
// tripping a bound.
func TestIMEXInlineInvariantsCleanRun(t *testing.T) {
	if !invariant.Enabled {
		t.Fatal("dmminvariant tag set but invariant.Enabled is false")
	}
	c := buildGateCap(t, solg.XOR, true)
	x := c.InitialState(rand.New(rand.NewSource(5)))
	d := &ode.Driver{
		Stepper: NewIMEX(c), H: 1e-3, TEnd: 100,
		Stop: func(tt float64, x la.Vector) bool {
			return tt > c.Params.TRise && c.Converged(tt, x, 0.02)
		},
	}
	res := d.Run(0, x)
	if res.Reason == ode.StopError {
		t.Fatalf("inline invariant check failed on a healthy run: %v", res.Err)
	}
}
