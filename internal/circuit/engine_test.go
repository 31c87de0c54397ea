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
	st := NewIMEX(c)
	x := c.InitialState(rand.New(rand.NewSource(5)))
	d := &ode.Driver{
		Stepper: st, H: 1e-3, TEnd: 100,
		Stop: func(tt float64, x la.Vector) bool { return tt > p.TRise && c.Converged(tt, x, 0.02) },
	}
	res := d.Run(0, x)
	if res.Reason != ode.StopCondition {
		t.Fatalf("IMEX gate did not converge: %v", res.Reason)
	}
	if c.NodeBit(res.T, x, n1) == c.NodeBit(res.T, x, n2) {
		t.Fatal("XOR out=1 requires unequal inputs")
	}
	if res.Steps == 0 || st.Computed() < res.Steps {
		t.Fatalf("IMEX step count not recorded: %d accepted steps, %d computed", res.Steps, st.Computed())
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
	st := NewIMEX(c)
	x := c.InitialState(rand.New(rand.NewSource(2)))
	for k := 0; k < 2000; k++ {
		if err := st.Step(float64(k)*0.01, 0.01, x); err != nil {
			t.Fatalf("IMEX step failed: %v", err)
		}
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
	// A Clone must report the same sizes as the circuit it was cloned
	// from, through the Engine interface, over private scratch.
	b := NewBuilder(Default())
	n1, n2, no := b.Node(), b.Node(), b.Node()
	b.AddGate(solg.OR, n1, n2, no)
	b.PinBit(no, false)
	c := b.Build()
	cp := c.Clone()
	var e1, e2 Engine = c, cp
	if e1.NumGates() != e2.NumGates() || e1.Dim() != e2.Dim() {
		t.Fatal("gate count or dimension mismatch")
	}
	n1c, m1, d1 := e1.Counts()
	n2c, m2, d2 := e2.Counts()
	if n1c != n2c || m1 != m2 || d1 != d2 {
		t.Fatal("counts mismatch")
	}
	if &cp.nodeV[0] == &c.nodeV[0] {
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
	st := NewIMEX(c)
	x := c.InitialState(rand.New(rand.NewSource(8)))
	if st.Energy() != 0 {
		t.Fatal("energy should start at 0")
	}
	for k := 0; k < 500; k++ {
		if err := st.Step(float64(k)*1e-3, 1e-3, x); err != nil {
			t.Fatal(err)
		}
	}
	e1 := st.Energy()
	if e1 <= 0 {
		t.Fatalf("energy after 500 steps = %v, want > 0", e1)
	}
	for k := 500; k < 1000; k++ {
		if err := st.Step(float64(k)*1e-3, 1e-3, x); err != nil {
			t.Fatal(err)
		}
	}
	if st.Energy() < e1 {
		t.Fatal("dissipated energy must be monotone")
	}
	if st.Computed() != 1000 {
		t.Fatalf("Computed() = %d after 1000 steps", st.Computed())
	}
	st.Reset()
	if st.Energy() != 0 || st.Computed() != 0 {
		t.Fatalf("Reset left energy %v and %d computed steps", st.Energy(), st.Computed())
	}
}
