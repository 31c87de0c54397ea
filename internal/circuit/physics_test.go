package circuit

import (
	"math/rand"
	"testing"

	"repro/internal/solg"
)

// TestPhysicsSampleBothForms checks the probe's observables are
// well-formed: saturation and the memristor histogram bounded, and
// MemHist totals matching the memristor count. It is named for the two
// dynamical forms it once covered; the capacitive form is the one left.
func TestPhysicsSampleBothForms(t *testing.T) {
	t.Run("capacitive", func(t *testing.T) {
		c := buildGateCap(t, solg.AND, true)
		x := c.InitialState(rand.New(rand.NewSource(3)))
		s := NewPhysicsProbe(c).Sample(0.5, x)
		if s.SaturatedFrac < 0 || s.SaturatedFrac > 1 {
			t.Errorf("SaturatedFrac = %g outside [0,1]", s.SaturatedFrac)
		}
		if s.MaxDxDt < 0 || s.MaxDvDt < 0 || s.MaxDvDt > s.MaxDxDt {
			t.Errorf("MaxDvDt = %g, MaxDxDt = %g: want 0 ≤ MaxDvDt ≤ MaxDxDt", s.MaxDvDt, s.MaxDxDt)
		}
		total := int32(0)
		for _, n := range s.MemHist {
			total += n
		}
		if int(total) != c.nm {
			t.Errorf("MemHist totals %d, want nm = %d", total, c.nm)
		}
	})
}

// TestPhysicsSaturationDetectsRails drives the free voltage states onto
// the ±vc rails and checks the probe reports full saturation.
func TestPhysicsSaturationDetectsRails(t *testing.T) {
	c := buildGateCap(t, solg.AND, true)
	x := c.InitialState(rand.New(rand.NewSource(1)))
	for f := 0; f < c.nv; f++ {
		x[c.vOff()+f] = c.Params.Vc
	}
	p := NewPhysicsProbe(c)
	// Sample late so the pinned ramp has reached ±vc too.
	s := p.Sample(c.Params.TRise*10, x)
	if s.SaturatedFrac != 1 {
		t.Errorf("SaturatedFrac = %g with all rails at vc, want 1", s.SaturatedFrac)
	}
}

// TestMemStatesView pins the Circuit.MemStates contract: a view, not a
// copy.
func TestMemStatesView(t *testing.T) {
	t.Run("capacitive", func(t *testing.T) {
		c := buildGateCap(t, solg.AND, true)
		x := c.InitialState(rand.New(rand.NewSource(1)))
		ms := c.MemStates(x)
		if len(ms) != c.nm {
			t.Fatalf("len(MemStates) = %d, want %d", len(ms), c.nm)
		}
		ms[0] = 0.123
		if c.MemStates(x)[0] != 0.123 {
			t.Error("MemStates must be a view into x")
		}
	})
}

// TestPhysicsSampleZeroAlloc pins the decimated-cadence cost: Sample on
// the capacitive form allocates nothing after construction.
func TestPhysicsSampleZeroAlloc(t *testing.T) {
	c := buildGateCap(t, solg.AND, true)
	x := c.InitialState(rand.New(rand.NewSource(1)))
	p := NewPhysicsProbe(c)
	p.Sample(0.5, x)
	allocs := testing.AllocsPerRun(200, func() { p.Sample(0.5, x) })
	if allocs != 0 {
		t.Errorf("Sample allocates %.1f/op, want 0", allocs)
	}
}
