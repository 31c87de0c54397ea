package circuit

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/la"
	"repro/internal/ode"
	"repro/internal/solg"
)

func buildGateQS(t *testing.T, kind solg.Kind, outBit bool) *QuasiStatic {
	t.Helper()
	b := NewBuilder(Default())
	n1, n2, no := b.Node(), b.Node(), b.Node()
	b.AddGate(kind, n1, n2, no)
	b.PinBit(no, outBit)
	return b.BuildQS()
}

func TestQSReducedDim(t *testing.T) {
	q := buildGateQS(t, solg.AND, true)
	nv, nm, nd := q.Counts()
	if q.Dim() != nm+2*nd {
		t.Fatalf("QS dim %d, want %d", q.Dim(), nm+2*nd)
	}
	if nv != 2 {
		t.Fatalf("nv = %d, want 2", nv)
	}
}

func TestQSVoltagesMatchCapacitiveEquilibrium(t *testing.T) {
	// Integrate the capacitive form to a logic equilibrium, then hand its
	// slow sub-state (x, i, s) to the quasi-static engine: the algebraic
	// voltage solve must reproduce the settled capacitive voltages. (The
	// static system with free terminals is degenerate along the paper's
	// center manifolds, so parity at a *dynamically selected* equilibrium
	// is the meaningful check.)
	mk := func() *Builder {
		b := NewBuilder(Default())
		n1, n2, no := b.Node(), b.Node(), b.Node()
		b.AddGate(solg.AND, n1, n2, no)
		b.PinBit(no, true)
		return b
	}
	c := mk().Build()
	q := mk().BuildQS()
	p := c.Params
	xc := c.InitialState(rand.New(rand.NewSource(4)))
	d := &ode.Driver{
		Stepper: NewIMEX(c, nil), H: 1e-3, TEnd: 100,
		Observe: func(tt float64, x la.Vector) { c.ClampState(x) },
		Stop:    func(tt float64, x la.Vector) bool { return tt > p.TRise && c.Converged(tt, x, 0.02) },
	}
	res := d.Run(c, 0, xc)
	if res.Reason != ode.StopCondition {
		t.Fatalf("capacitive run did not converge: %v", res.Reason)
	}
	nv, _, _ := c.Counts()
	xq := xc[nv:] // [x | i | s] block is the QS state
	vCap := c.NodeVoltages(res.T, xc, nil)
	vQS := q.NodeVoltages(res.T, xq, nil)
	// The equilibrium has a soft mode (center manifold), so exact voltage
	// parity is not expected; both forms must agree on the decoded logic
	// and keep every node within the logic band around ±vc.
	for n := range vCap {
		if (vCap[n] > 0) != (vQS[n] > 0) {
			t.Fatalf("decoded bit mismatch at node %d: cap=%v qs=%v", n, vCap[n], vQS[n])
		}
		if math.Abs(math.Abs(vQS[n])-1) > 0.2 {
			t.Fatalf("QS node %d voltage %v outside the logic band", n, vQS[n])
		}
	}
}

func TestQSGateSelfOrganizes(t *testing.T) {
	// The quasi-static engine should also solve a single gate in reverse,
	// using the adaptive integrator on the reduced state.
	q := buildGateQS(t, solg.AND, true)
	x := q.InitialState(rand.New(rand.NewSource(3)))
	d := &ode.Driver{
		Stepper: ode.NewRK45(nil),
		H:       1e-5, HMax: 1e-2, Tol: 1e-5, TEnd: 60,
		Observe: func(tt float64, x la.Vector) { q.ClampState(x) },
		Stop:    func(tt float64, x la.Vector) bool { return tt > 1 && q.Converged(tt, x, 0.02) },
	}
	res := d.Run(q, 0, x)
	if res.Reason != ode.StopCondition {
		t.Fatalf("QS gate did not converge: %v (err %v)", res.Reason, res.Err)
	}
	v := q.NodeVoltages(res.T, x, nil)
	if v[0] < 0 || v[1] < 0 {
		t.Fatalf("AND out=1 requires both inputs 1, got %v %v", v[0], v[1])
	}
}

// TestQSReadOutZeroAlloc pins the per-step stop check of quasi-static
// portfolio members: GatesSatisfied and Converged decode in the engine's
// own scratch and allocate nothing, and the read-out agrees with the
// decode through a caller-owned buffer.
func TestQSReadOutZeroAlloc(t *testing.T) {
	q := buildGateQS(t, solg.AND, true)
	x := q.InitialState(rand.New(rand.NewSource(3)))
	tt := 2 * q.Parameters().TRise
	v := q.NodeVoltages(tt, x, nil)
	var in [2]bool
	in[0], in[1] = v[0] > 0, v[1] > 0
	if want := solg.AND.Eval(in[:]...) == (v[2] > 0); q.GatesSatisfied(tt, x) != want {
		t.Fatalf("GatesSatisfied = %v, want %v for voltages %v", !want, want, v)
	}
	for name, f := range map[string]func(){
		"GatesSatisfied": func() { q.GatesSatisfied(tt, x) },
		"Converged":      func() { q.Converged(tt, x, 0.02) },
	} {
		if allocs := testing.AllocsPerRun(200, f); allocs != 0 {
			t.Errorf("%s allocates %.1f/op, want 0", name, allocs)
		}
	}
}

func TestIMEXGateSelfOrganizes(t *testing.T) {
	p := Default()
	b := NewBuilder(p)
	n1, n2, no := b.Node(), b.Node(), b.Node()
	b.AddGate(solg.XOR, n1, n2, no)
	b.PinBit(no, true)
	c := b.Build()
	stats := &ode.Stats{}
	st := NewIMEX(c, stats)
	x := c.InitialState(rand.New(rand.NewSource(5)))
	d := &ode.Driver{
		Stepper: st, H: 1e-3, TEnd: 100,
		Observe: func(tt float64, x la.Vector) { c.ClampState(x) },
		Stop:    func(tt float64, x la.Vector) bool { return tt > p.TRise && c.Converged(tt, x, 0.02) },
	}
	res := d.Run(c, 0, x)
	if res.Reason != ode.StopCondition {
		t.Fatalf("IMEX gate did not converge: %v", res.Reason)
	}
	if c.NodeBit(res.T, x, n1) == c.NodeBit(res.T, x, n2) {
		t.Fatal("XOR out=1 requires unequal inputs")
	}
	if stats.Steps == 0 || stats.JacEvals == 0 {
		t.Fatalf("IMEX stats not recorded: %+v", stats)
	}
}

func TestIMEXRejectsForeignCircuit(t *testing.T) {
	b1 := NewBuilder(Default())
	n1, n2, no := b1.Node(), b1.Node(), b1.Node()
	b1.AddGate(solg.AND, n1, n2, no)
	c1 := b1.Build()
	b2 := NewBuilder(Default())
	m1, m2, mo := b2.Node(), b2.Node(), b2.Node()
	b2.AddGate(solg.AND, m1, m2, mo)
	c2 := b2.Build()
	st := NewIMEX(c1, nil)
	x := c2.InitialState(rand.New(rand.NewSource(1)))
	if _, err := st.Step(c2, 0, 1e-3, x); err == nil {
		t.Fatal("IMEX must refuse a circuit it is not bound to")
	}
}

func TestIMEXVoltageStability(t *testing.T) {
	// The implicit voltage step must stay bounded at large h where the
	// explicit form would explode (node RC rate ~ g/C = 5000 against
	// h = 0.01).
	p := Default()
	b := NewBuilder(p)
	n1, n2, no := b.Node(), b.Node(), b.Node()
	b.AddGate(solg.AND, n1, n2, no)
	b.PinBit(no, true)
	c := b.Build()
	st := NewIMEX(c, nil)
	x := c.InitialState(rand.New(rand.NewSource(2)))
	for k := 0; k < 2000; k++ {
		if _, err := st.Step(c, float64(k)*0.01, 0.01, x); err != nil {
			t.Fatalf("IMEX step failed: %v", err)
		}
		c.ClampState(x)
		if x.HasNaN() {
			t.Fatalf("state NaN at step %d", k)
		}
	}
	nv, _, _ := c.Counts()
	for f := 0; f < nv; f++ {
		if math.Abs(x[f]) > 100 {
			t.Fatalf("voltage diverged: %v", x[f])
		}
	}
}

func TestEngineInterfaceParity(t *testing.T) {
	// Both engines must report the same electrical parameters and gate
	// counts for the same build.
	mk := func() *Builder {
		b := NewBuilder(Default())
		n1, n2, no := b.Node(), b.Node(), b.Node()
		b.AddGate(solg.OR, n1, n2, no)
		b.PinBit(no, false)
		return b
	}
	var e1 Engine = mk().Build()
	var e2 Engine = mk().BuildQS()
	if e1.NumGates() != e2.NumGates() {
		t.Fatal("gate count mismatch")
	}
	if e1.Parameters().Vc != e2.Parameters().Vc {
		t.Fatal("parameter mismatch")
	}
	n1, m1, d1 := e1.Counts()
	n2, m2, d2 := e2.Counts()
	if n1 != n2 || m1 != m2 || d1 != d2 {
		t.Fatal("counts mismatch")
	}
}

func TestIMEXEnergyAccumulates(t *testing.T) {
	p := Default()
	b := NewBuilder(p)
	n1, n2, no := b.Node(), b.Node(), b.Node()
	b.AddGate(solg.AND, n1, n2, no)
	b.PinBit(no, true)
	c := b.Build()
	st := NewIMEX(c, nil)
	x := c.InitialState(rand.New(rand.NewSource(8)))
	if st.Energy() != 0 {
		t.Fatal("energy should start at 0")
	}
	for k := 0; k < 500; k++ {
		if _, err := st.Step(c, float64(k)*1e-3, 1e-3, x); err != nil {
			t.Fatal(err)
		}
		c.ClampState(x)
	}
	e1 := st.Energy()
	if e1 <= 0 {
		t.Fatalf("energy after 500 steps = %v, want > 0", e1)
	}
	for k := 500; k < 1000; k++ {
		if _, err := st.Step(c, float64(k)*1e-3, 1e-3, x); err != nil {
			t.Fatal(err)
		}
		c.ClampState(x)
	}
	if st.Energy() < e1 {
		t.Fatal("dissipated energy must be monotone")
	}
	st.ResetEnergy()
	if st.Energy() != 0 {
		t.Fatal("ResetEnergy failed")
	}
}
