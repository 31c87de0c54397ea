package circuit

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/la"
	"repro/internal/obs"
	"repro/internal/solg"
)

// mixedBuilder returns a small circuit exercising every stamp case:
// 3-terminal gates, a NOT gate (unused v2 slot), pinned and free
// terminals.
func mixedBuilder() *Builder {
	b := NewBuilder(Default())
	n := b.Nodes(5)
	b.AddGate(solg.AND, n[0], n[1], n[2])
	b.AddGate(solg.XOR, n[1], n[2], n[3])
	b.AddNot(n[3], n[4])
	b.PinBit(n[4], true)
	return b
}

// buildMixed returns the mixedBuilder circuit in the capacitive form.
func buildMixed(t *testing.T) *Circuit {
	t.Helper()
	return mixedBuilder().Build()
}

// TestFactorCacheRungCounters pins that no factor is reused: the IMEX
// stepper, taken through the step sizes a run produces (a ramp, then a
// failed step's quarter), refactors on every step. The refactorizations
// are counted by the span profiler's factor phase, which the sparse LU
// charges itself.
func TestFactorCacheRungCounters(t *testing.T) {
	c := buildMixed(t)
	x := c.InitialState(rand.New(rand.NewSource(3)))
	s := NewIMEX(c)
	s.Spans = obs.NewSpans()
	tNow := 0.0
	hs := []float64{1e-3, 1e-3, 1.1e-3, 2.75e-4, 2.75e-4}
	for _, h := range hs {
		if err := s.Step(tNow, h, x); err != nil {
			t.Fatal(err)
		}
		tNow += h
	}
	refactors := s.Spans.Snapshot().Phases[obs.PhaseFactor].Count
	if refactors != int64(len(hs)) || s.Computed() != len(hs) {
		t.Fatalf("IMEX refactors=%d, computed=%d over %d steps, want one each per step",
			refactors, s.Computed(), len(hs))
	}

}

// solveDenseReference solves the factor's assembled operator against rhs
// with the dense partial-pivoting LU — the test-only reference the sparse
// symbolic-once path is checked against.
func solveDenseReference(t *testing.T, f *voltageFactor, rhs la.Vector) la.Vector {
	t.Helper()
	v, err := la.SolveDense(f.csr.ToDense(), rhs)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestIMEXSparseMatchesDenseTrajectory steps a circuit with the sparse
// solver and, at every step of the trajectory, re-solves the operator the
// step assembled through the stamp plan with a dense LU: the two must
// agree to solver precision. Every step assembles and factors the
// operator at its own conductances.
func TestIMEXSparseMatchesDenseTrajectory(t *testing.T) {
	c := buildMixed(t)
	x := c.InitialState(rand.New(rand.NewSource(5)))
	s := NewIMEX(c)
	h := 1e-3
	for k := 0; k < 500; k++ {
		if err := s.Step(float64(k)*h, h, x); err != nil {
			t.Fatalf("step %d: %v", k, err)
		}
		want := solveDenseReference(t, &s.f, s.rhs)
		for i := range want {
			if math.Abs(s.vNew[i]-want[i]) > 1e-10 {
				t.Fatalf("step %d free node %d: sparse %v dense %v", k, i, s.vNew[i], want[i])
			}
		}
	}
}

// TestStampPlanMatchesDerivative cross-checks the stamp plan against the
// explicit Derivative: at any state, A·v + rhs-terms must reproduce the
// capacitive currents, i.e. the backward-Euler residual of a zero-size
// step vanishes. A direct way to test it: assemble A and b at shift=0 and
// verify A·v - b equals -C·v̇ on the free nodes.
func TestStampPlanMatchesDerivative(t *testing.T) {
	c := buildMixed(t)
	rng := rand.New(rand.NewSource(2))
	x := c.InitialState(rng)
	tNow := 0.7

	// Left side: A(g)·v - b via the stamp plan at shift 0.
	g := la.NewVector(c.nm + 2) // shift slot 0
	c.fillConductances(g[:c.nm], x)
	g[c.gUnit()] = 1
	vals := make([]float64, c.plan.csr.NNZ())
	c.plan.assemble(vals, g)
	a := &la.CSR{Rows: c.nv, Cols: c.nv, RowPtr: c.plan.csr.RowPtr, ColIdx: c.plan.csr.ColIdx, Val: vals}
	nodeV := append(c.NodeVoltages(tNow, x, nil), 1) // unit slot
	v := x[c.vOff() : c.vOff()+c.nv]
	rhs := la.NewVector(c.nv)
	c.plan.assembleRHS(rhs, g, nodeV, v, x[c.iOff():c.iOff()+c.nd], 0)
	av := la.NewVector(c.nv)
	a.MulVec(av, v)

	// Right side: -C·v̇ from the explicit Derivative.
	dxdt := la.NewVector(c.Dim())
	c.Derivative(tNow, x, dxdt)
	for f := 0; f < c.nv; f++ {
		want := -c.Params.C * dxdt[c.vOff()+f]
		got := av[f] - rhs[f]
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("free node %d: plan residual %v, derivative %v", f, got, want)
		}
	}
}

// TestSparseDefaultAllocFreeStep verifies the production path allocates
// nothing per step once the factorization cache is warm.
func TestSparseDefaultAllocFreeStep(t *testing.T) {
	c := buildMixed(t)
	x := c.InitialState(rand.New(rand.NewSource(1)))
	s := NewIMEX(c)
	h := 1e-3
	if err := s.Step(0, h, x); err != nil {
		t.Fatal(err)
	}
	k := 0
	allocs := testing.AllocsPerRun(200, func() {
		k++
		if err := s.Step(float64(k)*h, h, x); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("sparse IMEX step allocated %v objects per run, want 0", allocs)
	}
}
