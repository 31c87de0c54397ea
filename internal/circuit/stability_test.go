package circuit

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/la"
	"repro/internal/ode"
	"repro/internal/solg"
)

// TestStableStepBound pins the IMEX step ceiling: at Default it is 0.7 of
// the LC-tank bound 2√(C/m1) (the γ-decay bound 2/γ is looser), it scales
// with √C — the path `dmm-bench -exp ablation-c` takes — and the γ term
// takes over once C is large enough. A circuit without VCDCGs reports no
// bound.
func TestStableStepBound(t *testing.T) {
	p := Default()
	want := 0.7 * 2 * math.Sqrt(p.C/p.DCG.M1)
	if got := p.stableStep(); math.Abs(got-want) > 1e-15 {
		t.Fatalf("Default stableStep = %v, want 0.7·2√(C/m1) = %v", got, want)
	}
	if 2/p.DCG.Gamma <= 2*math.Sqrt(p.C/p.DCG.M1) {
		t.Fatal("Default γ-decay bound is the tighter one; the LC term should bind")
	}
	q := p
	q.C = 4 * p.C
	if got := q.stableStep(); math.Abs(got-2*want) > 1e-15 {
		t.Fatalf("stableStep at 4C = %v, want 2× the Default %v", got, 2*want)
	}
	q.C = 100 * p.C
	if got, wantG := q.stableStep(), 0.7*2/p.DCG.Gamma; got != wantG {
		t.Fatalf("stableStep at 100C = %v, want the γ-decay bound 0.7·2/γ = %v", got, wantG)
	}
	if got := Paper().stableStep(); got >= 1e-3 {
		t.Fatalf("Paper stableStep = %v, want below the default initial step 1e-3", got)
	}

	b := NewBuilder(p)
	n := b.Nodes(3)
	b.AddGate(solg.AND, n[0], n[1], n[2])
	if got := NewIMEX(b.Build()).MaxStableStep(); got != want {
		t.Fatalf("IMEX MaxStableStep = %v, want %v", got, want)
	}
	p.OmitVCDCG = true
	b = NewBuilder(p)
	n = b.Nodes(3)
	b.AddGate(solg.AND, n[0], n[1], n[2])
	if got := NewIMEX(b.Build()).MaxStableStep(); got != 0 {
		t.Fatalf("IMEX MaxStableStep without VCDCGs = %v, want 0", got)
	}
}

// equilibriumState returns the candidate equilibrium of c at the node
// logic levels bits: v = ±vc, every memristor at the rail its drop drives
// it to, i = 0 and s at the stable root of its bistable equation.
func equilibriumState(c *Circuit, bits []bool) la.Vector {
	p := &c.Params
	x := la.NewVector(c.Dim())
	nodeV := la.NewVector(c.numNodes)
	for n, bit := range bits {
		nodeV[n] = -p.Vc
		if bit {
			nodeV[n] = p.Vc
		}
		if fi := c.freeIdx[n]; fi >= 0 {
			x[c.vOff()+fi] = nodeV[n]
		}
	}
	mem, _ := c.refBranches()
	for j, br := range mem {
		d := nodeV[br.node] - br.level(nodeV)
		if p.Mem.DxDt(0.5, br.sigma*d) > 0 {
			x[c.xOff()+j] = 1
		}
	}
	offset := p.DCG.FsOffset(x[c.iOff() : c.iOff()+c.nd])
	s := 1.0
	for k := 0; k < 50; k++ { // Newton on Fs(s) = 0 from the drive region
		ds := (p.DCG.Fs(s+1e-7, offset) - p.DCG.Fs(s-1e-7, offset)) / 2e-7
		s -= p.DCG.Fs(s, offset) / ds
	}
	for k := 0; k < c.nd; k++ {
		x[c.sOff()+k] = s
	}
	return x
}

// TestEquilibriaStableAtCeiling is the discrete-stability property of the
// IMEX step at its ceiling: for every gate op and every satisfying
// assignment, the gate in solution mode (output pinned) started from the
// candidate equilibrium with its free node voltages perturbed by up to
// 10% of vc returns to that equilibrium — v back at ±vc, VCDCG currents
// back at 0 — when IMEX runs at h = MaxStableStep. An equilibrium that
// exists but that the discrete map cannot hold is what a too-large h
// would cause.
func TestEquilibriaStableAtCeiling(t *testing.T) {
	const tol = 1e-3
	kinds := []solg.Kind{solg.AND, solg.OR, solg.XOR, solg.NAND, solg.NOR, solg.XNOR, solg.NOT}
	rng := rand.New(rand.NewSource(1))
	for _, kind := range kinds {
		terms := kind.Terminals()
		for a := 0; a < 1<<terms; a++ {
			bits := make([]bool, terms)
			for k := range bits {
				bits[k] = a>>k&1 == 1
			}
			if kind.Eval(bits[:terms-1]...) != bits[terms-1] {
				continue
			}
			b := NewBuilder(Default())
			n := b.Nodes(terms)
			if kind == solg.NOT {
				b.AddNot(n[0], n[1])
			} else {
				b.AddGate(kind, n[0], n[1], n[2])
			}
			b.PinBit(n[terms-1], bits[terms-1])
			c := b.Build()
			vc := c.Params.Vc
			t0 := 2 * c.Params.TRise // the pinned source has finished its ramp

			x := equilibriumState(c, bits)
			dx := la.NewVector(c.Dim())
			c.Derivative(t0, x, dx)
			if r := dx.NormInf(); r > 1e-8 {
				t.Fatalf("%v %v: candidate equilibrium residual %g, want ~0", kind, bits, r)
			}
			for f := 0; f < c.nv; f++ {
				x[c.vOff()+f] += 0.1 * vc * (2*rng.Float64() - 1)
			}
			st := NewIMEX(c)
			h := st.MaxStableStep()
			d := &ode.Driver{Stepper: st, H: h, HMax: h, TEnd: t0 + 5}
			if res := d.Run(t0, x); res.Reason != ode.StopTEnd {
				t.Fatalf("%v %v: run ended with %v (%v)", kind, bits, res.Reason, res.Err)
			}
			for k, bit := range bits {
				fi := c.freeIdx[n[k]]
				if fi < 0 {
					continue
				}
				want := -vc
				if bit {
					want = vc
				}
				if v := x[c.vOff()+fi]; math.Abs(v-want) > tol*vc {
					t.Errorf("%v %v: node %d settled at v = %v, want %v", kind, bits, k, v, want)
				}
			}
			for k := 0; k < c.nd; k++ {
				if i := x[c.iOff()+k]; math.Abs(i) > tol {
					t.Errorf("%v %v: VCDCG %d current %v, want back at 0", kind, bits, k, i)
				}
			}
		}
	}
}
