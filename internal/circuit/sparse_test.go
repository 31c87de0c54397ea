package circuit

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/la"
	"repro/internal/ode"
	"repro/internal/solg"
)

// buildMixed returns a small capacitive circuit exercising every stamp
// case: 3-terminal gates, a NOT gate (unused v2 slot), pinned and free
// terminals.
func buildMixed(t *testing.T) *Circuit {
	t.Helper()
	b := NewBuilder(Default())
	n := b.Nodes(5)
	b.AddGate(solg.AND, n[0], n[1], n[2])
	b.AddGate(solg.XOR, n[1], n[2], n[3])
	b.AddNot(n[3], n[4])
	b.PinBit(n[4], true)
	return b.Build()
}

// TestNeedRefactorPredicate is the table test pinning the refactor
// decision both engines share: a missing factorization, a disabled
// staleness tolerance, a changed key (step size), or a conductance drift
// beyond tolerance each force a refresh; staleness within tolerance does
// not.
func TestNeedRefactorPredicate(t *testing.T) {
	c := buildMixed(t)
	key := func(h float64) uint64 { return math.Float64bits(h) }
	cases := []struct {
		name  string
		have  bool
		hAt   float64
		h     float64
		tol   float64
		drift float64 // relative drift applied to g[0] vs gAt
		want  bool
	}{
		{"no factorization yet", false, 1e-3, 1e-3, 5e-3, 0, true},
		{"cached, same h, no drift", true, 1e-3, 1e-3, 5e-3, 0, false},
		{"tolerance zero refreshes every step", true, 1e-3, 1e-3, 0, 0, true},
		{"tolerance negative refreshes every step", true, 1e-3, 1e-3, -1, 0, true},
		{"step size changed", true, 1e-3, 2.5e-4, 5e-3, 0, true},
		{"step size changed by one ulp", true, 1e-3, math.Nextafter(1e-3, 0), 5e-3, 0, true},
		{"drift within tolerance", true, 1e-3, 1e-3, 5e-3, 3e-3, false},
		{"drift beyond tolerance", true, 1e-3, 1e-3, 5e-3, 8e-3, true},
	}
	for _, tc := range cases {
		f := voltageFactor{gAt: la.NewVector(c.nm), keyAt: key(tc.hAt), have: tc.have}
		g := la.NewVector(c.nm)
		for m := range g {
			f.gAt[m] = 1
			g[m] = 1
		}
		g[0] = 1 + tc.drift
		if got := f.stale(key(tc.h), g, tc.tol); got != tc.want {
			t.Errorf("%s: stale = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestClassifyReuseTable is the table test of the per-step reuse
// classification as the IMEX engine applies it: a step with no factor
// yet, with staleness disabled, at a changed step size, or with a
// conductance drift beyond RefactorTol refactors; a drift within
// RefactorTol reuses the factor exactly. The drift is planted in the
// factor's conductance snapshot against the conductances the next step
// will compute, and the outcome is read from the Refactors/FactorHits
// counters.
func TestClassifyReuseTable(t *testing.T) {
	c := buildMixed(t)
	const h = 1e-3
	cases := []struct {
		name  string
		prime bool    // take one step first so a factor exists
		tol   float64 // RefactorTol
		hNext float64
		drift float64 // relative drift of g[0] against the snapshot
		reuse bool
	}{
		{"cache miss", false, 5e-3, h, 0, false},
		{"staleness disabled", true, 0, h, 0, false},
		{"same h, no drift", true, 5e-3, h, 0, true},
		{"drift within RefactorTol", true, 5e-3, h, 3e-3, true},
		{"drift beyond RefactorTol", true, 5e-3, h, 8e-3, false},
		{"step size changed", true, 5e-3, h / 4, 0, false},
	}
	for _, tc := range cases {
		x := c.InitialState(rand.New(rand.NewSource(3)))
		stats := &ode.Stats{}
		s := NewIMEX(c, stats)
		s.RefactorTol = tc.tol
		if tc.prime {
			if _, err := s.Step(c, 0, h, x); err != nil {
				t.Fatalf("%s: priming step: %v", tc.name, err)
			}
			c.ClampState(x)
			g := la.NewVector(len(s.g))
			c.fillConductances(g, x, c.xOff())
			copy(s.f.gAt, g[:c.nm])
			s.f.gAt[0] = g[0] / (1 + tc.drift)
		}
		before := *stats
		if _, err := s.Step(c, h, tc.hNext, x); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		refactors := stats.Refactors - before.Refactors
		hits := stats.FactorHits - before.FactorHits
		if refactors+hits != 1 {
			t.Fatalf("%s: refactors=%d hits=%d, want exactly one of them", tc.name, refactors, hits)
		}
		if got := hits == 1; got != tc.reuse {
			t.Errorf("%s: reuse = %v, want %v", tc.name, got, tc.reuse)
		}
	}
}

// TestFactorCacheRungCounters steps one stepper through the only step-size
// sequence a fixed-h run produces — h until a failed step, then h/4 — and
// checks the refactor/hit counters: the first step at each h factors, a
// repeat reuses. RefactorTol is set huge so the counters depend only on
// the step-size key, not conductance drift.
func TestFactorCacheRungCounters(t *testing.T) {
	c := buildMixed(t)
	x := c.InitialState(rand.New(rand.NewSource(3)))
	stats := &ode.Stats{}
	s := NewIMEX(c, stats)
	s.RefactorTol = 1e18
	tNow := 0.0
	for _, h := range []float64{1e-3, 1e-3, 2.5e-4, 2.5e-4} {
		if _, err := s.Step(c, tNow, h, x); err != nil {
			t.Fatal(err)
		}
		tNow += h
		c.ClampState(x)
	}
	if stats.Refactors != 2 || stats.FactorHits != 2 {
		t.Fatalf("refactors=%d hits=%d, want 2/2", stats.Refactors, stats.FactorHits)
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
// agree to solver precision. RefactorTol 0 makes every step assemble and
// factor the operator at its own conductances.
func TestIMEXSparseMatchesDenseTrajectory(t *testing.T) {
	c := buildMixed(t)
	x := c.InitialState(rand.New(rand.NewSource(5)))
	s := NewIMEX(c, nil)
	s.RefactorTol = 0
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
