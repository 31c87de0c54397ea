package circuit

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/la"
	"repro/internal/ode"
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

// TestNeedRefactorPredicate is the table test pinning the refactor
// decision of voltageFactor.stale, which the quasi-static engine applies:
// a missing factorization, a disabled staleness tolerance, or a
// conductance drift beyond tolerance each force a refresh; staleness
// within tolerance does not.
func TestNeedRefactorPredicate(t *testing.T) {
	c := buildMixed(t)
	cases := []struct {
		name  string
		have  bool
		tol   float64
		drift float64 // relative drift applied to g[0] vs gAt
		want  bool
	}{
		{"no factorization yet", false, 5e-3, 0, true},
		{"cached, no drift", true, 5e-3, 0, false},
		{"tolerance zero refreshes every step", true, 0, 0, true},
		{"tolerance negative refreshes every step", true, -1, 0, true},
		{"drift within tolerance", true, 5e-3, 3e-3, false},
		{"drift beyond tolerance", true, 5e-3, 8e-3, true},
	}
	for _, tc := range cases {
		f := voltageFactor{gAt: la.NewVector(c.nm), have: tc.have}
		g := la.NewVector(c.nm)
		for m := range g {
			f.gAt[m] = 1
			g[m] = 1
		}
		g[0] = 1 + tc.drift
		if got := f.stale(g, tc.tol); got != tc.want {
			t.Errorf("%s: stale = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestClassifyReuseTable is the table test of the reuse classification
// as the quasi-static engine applies it on every Kirchhoff solve: a solve
// with no factor yet, with staleness disabled, or with a conductance
// drift beyond RefactorTol refactors; a drift within RefactorTol reuses
// the factor exactly. The drift is planted in the factor's conductance
// snapshot against the conductances the next solve will compute, and the
// outcome is read from the Refacts counter.
func TestClassifyReuseTable(t *testing.T) {
	cases := []struct {
		name  string
		prime bool    // solve once first so a factor exists
		tol   float64 // RefactorTol
		drift float64 // relative drift of g[0] against the snapshot
		reuse bool
	}{
		{"cache miss", false, 5e-3, 0, false},
		{"staleness disabled", true, 0, 0, false},
		{"same state, no drift", true, 5e-3, 0, true},
		{"drift within RefactorTol", true, 5e-3, 3e-3, true},
		{"drift beyond RefactorTol", true, 5e-3, 8e-3, false},
	}
	for _, tc := range cases {
		q := mixedBuilder().BuildQS()
		q.RefactorTol = tc.tol
		x := q.InitialState(rand.New(rand.NewSource(3)))
		if tc.prime {
			q.NodeVoltages(0, x, nil)
			g := la.NewVector(len(q.g))
			q.C.fillConductances(g, x, q.xOff())
			copy(q.f.gAt, g[:q.C.nm])
			q.f.gAt[0] = g[0] / (1 + tc.drift)
		}
		before := q.Refacts
		q.NodeVoltages(0.5, x, nil)
		refactors := q.Refacts - before
		if refactors != 0 && refactors != 1 {
			t.Fatalf("%s: %d refactors in one solve", tc.name, refactors)
		}
		if got := refactors == 0; got != tc.reuse {
			t.Errorf("%s: reuse = %v, want %v", tc.name, got, tc.reuse)
		}
	}
}

// TestFactorCacheRungCounters pins where factor reuse survives. The IMEX
// stepper, taken through the step sizes a run produces (a ramp, then a
// failed step's quarter), refactors on every step and reuses nothing.
// The quasi-static engine, with RefactorTol set huge so the counters do
// not depend on conductance drift, factors on its first solve, reuses
// the factor on every repeat, and a Clone starts with no factor.
func TestFactorCacheRungCounters(t *testing.T) {
	c := buildMixed(t)
	x := c.InitialState(rand.New(rand.NewSource(3)))
	stats := &ode.Stats{}
	s := NewIMEX(c, stats)
	tNow := 0.0
	hs := []float64{1e-3, 1e-3, 1.1e-3, 2.75e-4, 2.75e-4}
	for _, h := range hs {
		if _, err := s.Step(c, tNow, h, x); err != nil {
			t.Fatal(err)
		}
		tNow += h
		c.ClampState(x)
	}
	if stats.Refactors != len(hs) {
		t.Fatalf("IMEX refactors=%d over %d steps, want one per step", stats.Refactors, len(hs))
	}

	q := mixedBuilder().BuildQS()
	q.RefactorTol = 1e18
	xq := q.InitialState(rand.New(rand.NewSource(3)))
	for k := 0; k < 4; k++ {
		q.NodeVoltages(float64(k)*0.25, xq, nil)
	}
	if q.Refacts != 1 {
		t.Fatalf("quasi-static refactors=%d over 4 solves, want 1", q.Refacts)
	}
	cq := q.Clone().(*QuasiStatic)
	cq.NodeVoltages(0, xq, nil)
	if cq.Refacts != 1 || q.Refacts != 1 {
		t.Fatalf("clone refactors=%d (original %d), want 1 each", cq.Refacts, q.Refacts)
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
	s := NewIMEX(c, nil)
	h := 1e-3
	for k := 0; k < 500; k++ {
		if _, err := s.Step(c, float64(k)*h, h, x); err != nil {
			t.Fatalf("step %d: %v", k, err)
		}
		c.ClampState(x)
		want := solveDenseReference(t, &s.f, s.rhs)
		for i := range want {
			if math.Abs(s.vNew[i]-want[i]) > 1e-10 {
				t.Fatalf("step %d free node %d: sparse %v dense %v", k, i, s.vNew[i], want[i])
			}
		}
	}
}

// TestQSSparseMatchesDenseVoltages solves the quasi-static Kirchhoff
// system for random reduced states and compares the sparse voltages with
// a dense LU solve of the same assembled operator.
func TestQSSparseMatchesDenseVoltages(t *testing.T) {
	b := NewBuilder(Default())
	n := b.Nodes(4)
	b.AddGate(solg.OR, n[0], n[1], n[2])
	b.AddGate(solg.NAND, n[1], n[2], n[3])
	b.PinBit(n[3], false)
	q := b.BuildQS()
	q.RefactorTol = 0
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		x := q.InitialState(rng)
		for m := 0; m < q.C.nm; m++ {
			x[m] = rng.Float64()
		}
		q.NodeVoltages(1.5, x, nil)
		want := solveDenseReference(t, &q.f, q.rhs)
		for i := range want {
			if math.Abs(q.vSol[i]-want[i]) > 1e-9 {
				t.Fatalf("trial %d free node %d: sparse %v dense %v", trial, i, q.vSol[i], want[i])
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
	g := la.NewVector(c.memBr.len() + c.resBr.len())
	c.fillConductances(g, x, c.xOff())
	vals := make([]float64, c.plan.csr.NNZ())
	c.plan.assemble(vals, 0, g)
	a := &la.CSR{Rows: c.nv, Cols: c.nv, RowPtr: c.plan.csr.RowPtr, ColIdx: c.plan.csr.ColIdx, Val: vals}
	nodeV := c.NodeVoltages(tNow, x, nil)
	rhs := la.NewVector(c.nv)
	c.plan.assembleRHS(rhs, g, nodeV)
	for k, node := range c.dcgNodes {
		if fi := c.freeIdx[node]; fi >= 0 {
			rhs[fi] -= x[c.iOff()+k]
		}
	}
	v := la.NewVector(c.nv)
	for n := 0; n < c.numNodes; n++ {
		if fi := c.freeIdx[n]; fi >= 0 {
			v[fi] = nodeV[n]
		}
	}
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
	s := NewIMEX(c, nil)
	h := 1e-3
	if _, err := s.Step(c, 0, h, x); err != nil {
		t.Fatal(err)
	}
	k := 0
	allocs := testing.AllocsPerRun(200, func() {
		k++
		if _, err := s.Step(c, float64(k)*h, h, x); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("sparse IMEX step allocated %v objects per run, want 0", allocs)
	}
}
