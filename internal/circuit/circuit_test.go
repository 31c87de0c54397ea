package circuit

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/device"
	"repro/internal/la"
	"repro/internal/ode"
	"repro/internal/solg"
)

// solveGate builds one gate with the output pinned and integrates until the
// circuit self-organizes; returns the decoded input bits and success.
func solveGate(t *testing.T, kind solg.Kind, outBit bool, seed int64) (in1, in2 bool, ok bool) {
	t.Helper()
	p := Default()
	b := NewBuilder(p)
	n1, n2, no := b.Node(), b.Node(), b.Node()
	b.AddGate(kind, n1, n2, no)
	b.PinBit(no, outBit)
	c := b.Build()
	rng := rand.New(rand.NewSource(seed))
	x := c.InitialState(rng)
	d := &ode.Driver{
		Stepper: NewIMEX(c),
		H:       1e-3, TEnd: 100,
		Stop: func(tt float64, x la.Vector) bool { return tt > p.TRise && c.Converged(tt, x, 0.02) },
	}
	res := d.Run(0, x)
	return c.NodeBit(res.T, x, n1), c.NodeBit(res.T, x, n2), res.Reason == ode.StopCondition
}

func TestGateSelfOrganizesInReverse(t *testing.T) {
	for _, kind := range []solg.Kind{solg.AND, solg.OR, solg.XOR} {
		for _, outBit := range []bool{true, false} {
			in1, in2, ok := solveGate(t, kind, outBit, 7)
			if !ok {
				t.Fatalf("%v out=%v did not converge", kind, outBit)
			}
			if kind.Eval(in1, in2) != outBit {
				t.Fatalf("%v self-organized to inconsistent inputs (%v,%v) for out=%v",
					kind, in1, in2, outBit)
			}
		}
	}
}

func TestGateSolutionDiversity(t *testing.T) {
	// AND with output pinned 0 has three satisfying input pairs; different
	// seeds should reach at least two distinct ones.
	seen := map[[2]bool]bool{}
	for seed := int64(1); seed <= 6; seed++ {
		in1, in2, ok := solveGate(t, solg.AND, false, seed)
		if !ok {
			t.Fatalf("seed %d did not converge", seed)
		}
		seen[[2]bool{in1, in2}] = true
	}
	if seen[[2]bool{true, true}] {
		t.Fatal("AND out=0 converged to the forbidden input (1,1)")
	}
	if len(seen) < 2 {
		t.Fatalf("expected solution diversity across seeds, got only %v", seen)
	}
}

// fullAdder wires s = a⊕b⊕cin, cout = ab ∨ cin(a⊕b).
func fullAdder(b *Builder, a, bb, cin Node) (s, cout Node) {
	x1 := b.Node()
	b.AddGate(solg.XOR, a, bb, x1)
	s = b.Node()
	b.AddGate(solg.XOR, x1, cin, s)
	a1 := b.Node()
	b.AddGate(solg.AND, a, bb, a1)
	a2 := b.Node()
	b.AddGate(solg.AND, x1, cin, a2)
	cout = b.Node()
	b.AddGate(solg.OR, a1, a2, cout)
	return s, cout
}

func TestFullAdderForward(t *testing.T) {
	// Test mode: pin all inputs, check outputs organize to the sum.
	cases := []struct{ a, b, cin bool }{
		{false, false, false}, {true, false, false}, {true, true, false}, {true, true, true},
	}
	for _, tc := range cases {
		p := Default()
		bld := NewBuilder(p)
		a, bb, cin := bld.Node(), bld.Node(), bld.Node()
		s, cout := fullAdder(bld, a, bb, cin)
		bld.PinBit(a, tc.a)
		bld.PinBit(bb, tc.b)
		bld.PinBit(cin, tc.cin)
		c := bld.Build()
		rng := rand.New(rand.NewSource(3))
		x := c.InitialState(rng)
		d := &ode.Driver{
			Stepper: NewIMEX(c), H: 1e-3, TEnd: 100,
			Stop: func(tt float64, x la.Vector) bool { return tt > p.TRise && c.Converged(tt, x, 0.02) },
		}
		res := d.Run(0, x)
		if res.Reason != ode.StopCondition {
			t.Fatalf("forward adder %+v did not converge (%v)", tc, res.Reason)
		}
		n := 0
		for _, in := range []bool{tc.a, tc.b, tc.cin} {
			if in {
				n++
			}
		}
		gotS, gotC := c.NodeBit(res.T, x, s), c.NodeBit(res.T, x, cout)
		if gotS != (n%2 == 1) || gotC != (n >= 2) {
			t.Fatalf("forward adder %+v: got s=%v cout=%v", tc, gotS, gotC)
		}
	}
}

func TestFullAdderReverse(t *testing.T) {
	// Solution mode: pin s=0, cout=1; the addends must hold exactly two 1s.
	p := Default()
	bld := NewBuilder(p)
	a, bb, cin := bld.Node(), bld.Node(), bld.Node()
	s, cout := fullAdder(bld, a, bb, cin)
	bld.PinBit(s, false)
	bld.PinBit(cout, true)
	c := bld.Build()
	rng := rand.New(rand.NewSource(11))
	x := c.InitialState(rng)
	d := &ode.Driver{
		Stepper: NewIMEX(c), H: 1e-3, TEnd: 200,
		Stop: func(tt float64, x la.Vector) bool { return tt > p.TRise && c.Converged(tt, x, 0.02) },
	}
	res := d.Run(0, x)
	if res.Reason != ode.StopCondition {
		t.Fatalf("reverse adder did not converge: %v (err %v)", res.Reason, res.Err)
	}
	ones := 0
	for _, n := range []Node{a, bb, cin} {
		if c.NodeBit(res.T, x, n) {
			ones++
		}
	}
	if ones != 2 {
		t.Fatalf("reverse adder found %d ones, want 2", ones)
	}
}

func TestCountsAndDim(t *testing.T) {
	p := Default()
	b := NewBuilder(p)
	n1, n2, no := b.Node(), b.Node(), b.Node()
	b.AddGate(solg.AND, n1, n2, no)
	b.PinBit(no, true)
	c := b.Build()
	nv, nm, nd := c.Counts()
	// 3 nodes, one pinned: 2 free, 2 VCDCGs; AND has 3 terminals × 3
	// memristor clamps = 9 memristors.
	if nv != 2 || nd != 2 {
		t.Fatalf("nv=%d nd=%d, want 2, 2", nv, nd)
	}
	if nm != 9 {
		t.Fatalf("nm=%d, want 9", nm)
	}
	if c.Dim() != nv+nm+2*nd {
		t.Fatalf("Dim=%d, want %d", c.Dim(), nv+nm+2*nd)
	}
	if c.NumGates() != 1 {
		t.Fatalf("NumGates=%d", c.NumGates())
	}
}

func TestPinnedNodeFollowsRamp(t *testing.T) {
	p := Default()
	p.TRise = 2
	b := NewBuilder(p)
	n := b.Node()
	n2, no := b.Node(), b.Node()
	b.AddGate(solg.AND, n, n2, no)
	b.PinBit(n, true)
	c := b.Build()
	x := c.InitialState(rand.New(rand.NewSource(1)))
	v := c.NodeVoltages(0, x, nil)
	if v[n] != 0 {
		t.Fatalf("pinned node at t=0: %v, want 0 (ramp start)", v[n])
	}
	v = c.NodeVoltages(1, x, nil)
	if math.Abs(v[n]-0.5*p.Vc) > 1e-12 {
		t.Fatalf("pinned node mid-ramp: %v, want %v", v[n], 0.5*p.Vc)
	}
	v = c.NodeVoltages(10, x, nil)
	if v[n] != p.Vc {
		t.Fatalf("pinned node after ramp: %v, want vc", v[n])
	}
}

// TestStepBoundsState checks that the IMEX step itself keeps the slow
// states in their invariant regions: from a state whose currents sit far
// beyond the bound, one step leaves every memristor state in [0,1] and
// every current clamped to ±IBoundFactor·IMax, sign kept.
func TestStepBoundsState(t *testing.T) {
	p := Default()
	b := NewBuilder(p)
	n1, n2, no := b.Node(), b.Node(), b.Node()
	b.AddGate(solg.AND, n1, n2, no)
	c := b.Build()
	x := c.InitialState(rand.New(rand.NewSource(4)))
	x[c.xOff()], x[c.xOff()+1] = 0, 1
	x[c.iOff()], x[c.iOff()+1] = 1e6, -1e6
	if err := NewIMEX(c).Step(0, 1e-3, x); err != nil {
		t.Fatal(err)
	}
	for m := 0; m < c.nm; m++ {
		if v := x[c.xOff()+m]; !(v >= 0 && v <= 1) {
			t.Fatalf("memristor %d state %v outside [0,1]", m, v)
		}
	}
	bound := device.IBoundFactor * p.DCG.IMax
	if x[c.iOff()] != bound || x[c.iOff()+1] != -bound {
		t.Fatalf("currents %v, %v after the step, want ±%v", x[c.iOff()], x[c.iOff()+1], bound)
	}
}

func TestInitialStateInvariants(t *testing.T) {
	p := Default()
	b := NewBuilder(p)
	n1, n2, no := b.Node(), b.Node(), b.Node()
	b.AddGate(solg.XOR, n1, n2, no)
	c := b.Build()
	x := c.InitialState(rand.New(rand.NewSource(5)))
	for m := 0; m < c.nm; m++ {
		if v := x[c.xOff()+m]; v < 0 || v > 1 {
			t.Fatalf("initial memristor state out of range: %v", v)
		}
	}
	for k := 0; k < c.nd; k++ {
		if x[c.iOff()+k] != 0 {
			t.Fatal("initial VCDCG current should be 0")
		}
		if x[c.sOff()+k] != 1 {
			t.Fatal("initial bistable should start in the drive region")
		}
	}
}

func TestDerivativeFiniteEverywhere(t *testing.T) {
	// Random states (within invariant bounds) must give finite derivatives.
	p := Default()
	b := NewBuilder(p)
	n1, n2, no := b.Node(), b.Node(), b.Node()
	b.AddGate(solg.XOR, n1, n2, no)
	b.PinBit(no, true)
	c := b.Build()
	rng := rand.New(rand.NewSource(9))
	dx := la.NewVector(c.Dim())
	for trial := 0; trial < 200; trial++ {
		x := c.InitialState(rng)
		for f := 0; f < c.nv; f++ {
			x[f] = 3 * (2*rng.Float64() - 1) // exaggerated voltages
		}
		c.Derivative(rng.Float64()*10, x, dx)
		if dx.HasNaN() {
			t.Fatalf("NaN derivative at trial %d", trial)
		}
	}
}

func TestGatesSatisfiedDecoding(t *testing.T) {
	p := Default()
	b := NewBuilder(p)
	n1, n2, no := b.Node(), b.Node(), b.Node()
	b.AddGate(solg.AND, n1, n2, no)
	c := b.Build()
	x := la.NewVector(c.Dim())
	set := func(n Node, v float64) { x[c.vOff()+c.freeIdx[n]] = v }
	set(n1, 1)
	set(n2, 1)
	set(no, 1)
	if !c.GatesSatisfied(0, x) {
		t.Fatal("1∧1=1 should decode as satisfied")
	}
	set(no, -1)
	if c.GatesSatisfied(0, x) {
		t.Fatal("1∧1=0 should decode as violated")
	}
}

// TestSharedGateSets builds circuits on several goroutines at once and
// checks that every builder with the same Vc gets the same parameter set
// for a gate kind, and a builder with another Vc its own.
func TestSharedGateSets(t *testing.T) {
	build := func(p Params) *Builder {
		b := NewBuilder(p)
		n := b.Nodes(3)
		b.AddGate(solg.XOR, n[0], n[1], n[2])
		b.AddNot(n[0], n[1])
		return b
	}
	const workers = 4
	got := make([]*Builder, workers)
	done := make(chan struct{})
	for w := range got {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			got[w] = build(Default())
		}(w)
	}
	for range got {
		<-done
	}
	for _, b := range got[1:] {
		for i := range b.gates {
			if b.gates[i].gate != got[0].gates[i].gate {
				t.Fatalf("gate %d: builders with the same Vc hold different parameter sets", i)
			}
		}
	}
	p := Default()
	p.Vc = 2
	other := build(p)
	if other.gates[0].gate == got[0].gates[0].gate {
		t.Fatal("builders with different Vc share a parameter set")
	}
	if !reflect.DeepEqual(other.gates[0].gate, solg.MustNew(solg.XOR, 2)) {
		t.Fatal("shared parameter set at Vc = 2 differs from solg.MustNew")
	}
}
