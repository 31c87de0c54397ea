package solg

import (
	"math"
	"testing"
)

var allKinds = []Kind{AND, OR, XOR, NAND, NOR, XNOR, NOT}

const (
	vc   = 1.0
	ron  = 1e-2
	roff = 1.0
)

func TestKindEval(t *testing.T) {
	cases := []struct {
		k    Kind
		a, b bool
		want bool
	}{
		{AND, true, true, true}, {AND, true, false, false},
		{OR, false, false, false}, {OR, true, false, true},
		{XOR, true, true, false}, {XOR, true, false, true},
		{NAND, true, true, false}, {NAND, false, false, true},
		{NOR, false, false, true}, {NOR, true, false, false},
		{XNOR, true, true, true}, {XNOR, true, false, false},
	}
	for _, c := range cases {
		if got := c.k.Eval(c.a, c.b); got != c.want {
			t.Fatalf("%v(%v,%v) = %v, want %v", c.k, c.a, c.b, got, c.want)
		}
	}
	if NOT.Eval(true) || !NOT.Eval(false) {
		t.Fatal("NOT broken")
	}
}

func TestKindTerminals(t *testing.T) {
	for _, k := range allKinds {
		want := 3
		if k == NOT {
			want = 2
		}
		if k.Terminals() != want {
			t.Fatalf("%v.Terminals() = %d, want %d", k, k.Terminals(), want)
		}
	}
}

// TestTableIContract is the Table I verification: every gate's DCM set
// must make correct configurations zero-current equilibria and incorrect
// configurations unstable (at least one strong corrective branch).
func TestTableIContract(t *testing.T) {
	for _, k := range allKinds {
		g, err := New(k, vc)
		if err != nil {
			t.Fatalf("New(%v): %v", k, err)
		}
		if v := g.VerifyContract(vc, ron, roff); len(v) != 0 {
			t.Fatalf("%v violates the gate contract:\n%s", k, v)
		}
	}
}

// TestTableIANDResistorLevel pins the re-derived resistor VCVG for the AND
// input terminal against the hand calculation in DESIGN.md (L_R = 4v1 -
// 3vo), which matches the legible fragment of the paper's Table I.
func TestTableIANDResistorLevel(t *testing.T) {
	g := MustNew(AND, vc)
	dcm := g.DCMs[0]
	lr := dcm.Branches[len(dcm.Branches)-1]
	if lr.Mem {
		t.Fatal("last branch should be the resistor branch")
	}
	if math.Abs(lr.L.A1-4) > 1e-9 || math.Abs(lr.L.A2) > 1e-9 ||
		math.Abs(lr.L.Ao+3) > 1e-9 || math.Abs(lr.L.DC) > 1e-9 {
		t.Fatalf("AND T1 resistor VCVG = %+v, want {4, 0, -3, 0}", lr.L)
	}
}

// TestFig4StableUnstable reproduces the Fig. 4 dichotomy for the SO-AND:
// the satisfying configuration draws no current, the violating one draws
// corrective currents of order vc/Ron.
func TestFig4StableUnstable(t *testing.T) {
	g := MustNew(AND, vc)
	// Stable: 1 AND 1 = 1.
	rep := g.Analyze([]bool{true, true, true}, vc, ron, roff)
	if !rep.Correct {
		t.Fatal("1∧1=1 should be correct")
	}
	for ter, i := range rep.NetCurrent {
		if math.Abs(i) > 1e-9 {
			t.Fatalf("stable config: terminal %d current %g, want 0", ter, i)
		}
	}
	// Unstable: output forced wrong (1∧1 = 0).
	rep = g.Analyze([]bool{true, true, false}, vc, ron, roff)
	if rep.Correct {
		t.Fatal("1∧1=0 should be incorrect")
	}
	maxI := 0.0
	for _, i := range rep.NetCurrent {
		if a := math.Abs(i); a > maxI {
			maxI = a
		}
	}
	if maxI < vc/ron/2 {
		t.Fatalf("unstable config corrective current %g, want order vc/Ron = %g", maxI, vc/ron)
	}
}

// TestCorrectiveCurrentSignFlips checks the Sec. V-C rule that the
// corrective current at the output terminal opposes the wrong value: with
// the AND output wrongly low, current must flow so as to raise it.
func TestCorrectiveCurrentSignFlips(t *testing.T) {
	g := MustNew(AND, vc)
	// (1,1,0): output should rise → net out-current at the output terminal
	// must be negative (current flows into the node, raising v with the
	// node equation C·dv/dt = -i_out).
	rep := g.Analyze([]bool{true, true, false}, vc, ron, roff)
	if rep.NetCurrent[2] >= 0 {
		t.Fatalf("output low and wrong: out-current %g, want negative (pull up)", rep.NetCurrent[2])
	}
	// (1,0,1): output should fall → positive out-current.
	rep = g.Analyze([]bool{true, false, true}, vc, ron, roff)
	if rep.NetCurrent[2] <= 0 {
		t.Fatalf("output high and wrong: out-current %g, want positive (pull down)", rep.NetCurrent[2])
	}
}

func TestKwrongLowerBound(t *testing.T) {
	// Eq. (64) requires i_DCGmax < K_wrong·vc/Ron. Measure K_wrong: the
	// smallest max-terminal corrective current over all incorrect configs
	// of all gates, in units of vc/Ron. It must comfortably exceed the
	// Table II i_max = 20 when scaled.
	minMax := math.Inf(1)
	for _, k := range allKinds {
		g := MustNew(k, vc)
		nt := k.Terminals()
		for m := 0; m < 1<<nt; m++ {
			bits := make([]bool, nt)
			for i := range bits {
				bits[i] = m&(1<<i) != 0
			}
			rep := g.Analyze(bits, vc, ron, roff)
			if rep.Correct {
				continue
			}
			maxI := 0.0
			for _, i := range rep.NetCurrent {
				if a := math.Abs(i); a > maxI {
					maxI = a
				}
			}
			if maxI < minMax {
				minMax = maxI
			}
		}
	}
	kwrong := minMax / (vc / ron)
	if kwrong < 0.5 {
		t.Fatalf("K_wrong = %g, want O(1) per Sec. VI-G", kwrong)
	}
	const iMax = 20.0
	if iMax >= minMax {
		t.Fatalf("Table II i_max = %v violates Eq. (64) bound %v", iMax, minMax)
	}
}

func TestAnalyzeNOT(t *testing.T) {
	g := MustNew(NOT, vc)
	rep := g.Analyze([]bool{true, false}, vc, ron, roff)
	if !rep.Correct {
		t.Fatal("NOT(1)=0 should be correct")
	}
	for ter, i := range rep.NetCurrent {
		if math.Abs(i) > 1e-9 {
			t.Fatalf("NOT stable config: terminal %d current %g", ter, i)
		}
	}
	rep = g.Analyze([]bool{true, true}, vc, ron, roff)
	if rep.Correct {
		t.Fatal("NOT(1)=1 should be incorrect")
	}
	if rep.StrongBranches[0]+rep.StrongBranches[1] == 0 {
		t.Fatal("NOT wrong config should be corrected")
	}
}

func TestVcScaling(t *testing.T) {
	// The construction must scale with vc: contract holds at vc = 2.5.
	for _, k := range allKinds {
		g := MustNew(k, 2.5)
		if v := g.VerifyContract(2.5, ron, roff); len(v) != 0 {
			t.Fatalf("%v violates contract at vc=2.5:\n%s", k, v)
		}
	}
}

func TestGateStringer(t *testing.T) {
	names := map[Kind]string{AND: "AND", OR: "OR", XOR: "XOR", NAND: "NAND",
		NOR: "NOR", XNOR: "XNOR", NOT: "NOT"}
	for k, want := range names {
		if k.String() != want {
			t.Fatalf("String() = %q, want %q", k.String(), want)
		}
	}
}

// TestTableIPerturbation: perturbing the solved resistor VCVG must break
// the zero-current property — the solved parameters are the unique
// balancers given the clamp set (ablation 5 in DESIGN.md).
func TestTableIPerturbation(t *testing.T) {
	g := MustNew(AND, vc)
	lr := &g.DCMs[0].Branches[len(g.DCMs[0].Branches)-1]
	lr.L.DC += 0.3
	viol := g.VerifyContract(vc, ron, roff)
	if len(viol) == 0 {
		t.Fatal("perturbed resistor VCVG should violate the contract")
	}
}

// TestNewMatchesDerive holds New, which scales a copy of the start-up
// gate at vc = 1, to a full derivation at each vc, bit for bit, and
// checks that the copies New returns share no branch array.
func TestNewMatchesDerive(t *testing.T) {
	for _, k := range allKinds {
		for _, v := range []float64{1, 0.7, 2.5, 1e-300, math.Copysign(0, -1), math.Inf(1), math.NaN()} {
			got, err := New(k, v)
			if err != nil {
				t.Fatal(err)
			}
			want, err := derive(k, v)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.DCMs) != len(want.DCMs) || got.Kind != want.Kind {
				t.Fatalf("%v vc=%v: got %+v, want %+v", k, v, got, want)
			}
			for d := range got.DCMs {
				g, w := got.DCMs[d].Branches, want.DCMs[d].Branches
				if len(g) != len(w) {
					t.Fatalf("%v vc=%v terminal %d: %d branches, want %d", k, v, d, len(g), len(w))
				}
				for b := range g {
					gb, wb := g[b], w[b]
					if gb.Mem != wb.Mem || !sameBits(gb.Sigma, wb.Sigma) || !sameBits(gb.L.A1, wb.L.A1) ||
						!sameBits(gb.L.A2, wb.L.A2) || !sameBits(gb.L.Ao, wb.L.Ao) || !sameBits(gb.L.DC, wb.L.DC) {
						t.Fatalf("%v vc=%v terminal %d branch %d: got %+v, want %+v", k, v, d, b, gb, wb)
					}
				}
			}
		}
		a, b := MustNew(k, 1), MustNew(k, 1)
		a.DCMs[0].Branches[0].L.DC = 42
		if b.DCMs[0].Branches[0].L.DC == 42 || MustNew(k, 1).DCMs[0].Branches[0].L.DC == 42 {
			t.Fatalf("%v: gates returned by New share branch storage", k)
		}
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
