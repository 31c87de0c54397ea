package circuit

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/la"
	"repro/internal/ode"
	"repro/internal/solg"
)

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
	if stats.Steps == 0 || stats.Refactors == 0 {
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
	if err := st.Step(c2, 0, 1e-3, x); err == nil {
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
		if err := st.Step(c, float64(k)*0.01, 0.01, x); err != nil {
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
	// A Clone must report the same electrical parameters and counts as
	// the engine it was cloned from, over private scratch.
	b := NewBuilder(Default())
	n1, n2, no := b.Node(), b.Node(), b.Node()
	b.AddGate(solg.OR, n1, n2, no)
	b.PinBit(no, false)
	c := b.Build()
	var e1 Engine = c
	e2 := e1.Clone()
	if e1.NumGates() != e2.NumGates() || e1.Dim() != e2.Dim() {
		t.Fatal("gate count or dimension mismatch")
	}
	if e1.Parameters().Vc != e2.Parameters().Vc {
		t.Fatal("parameter mismatch")
	}
	n1c, m1, d1 := e1.Counts()
	n2c, m2, d2 := e2.Counts()
	if n1c != n2c || m1 != m2 || d1 != d2 {
		t.Fatal("counts mismatch")
	}
	if &e2.(*Circuit).nodeV[0] == &c.nodeV[0] {
		t.Fatal("clone shares the node-voltage scratch")
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
		if err := st.Step(c, float64(k)*1e-3, 1e-3, x); err != nil {
			t.Fatal(err)
		}
		c.ClampState(x)
	}
	e1 := st.Energy()
	if e1 <= 0 {
		t.Fatalf("energy after 500 steps = %v, want > 0", e1)
	}
	for k := 500; k < 1000; k++ {
		if err := st.Step(c, float64(k)*1e-3, 1e-3, x); err != nil {
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
