package circuit_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/boolcirc"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/la"
	"repro/internal/solc"
)

// factorSOLC compiles the factorization SOLC of n on the multiplier whose
// product has the given width.
func factorSOLC(n uint64, width int) *circuit.Circuit {
	bc, _, _, pins := core.BuildCircuit(n, width)
	return solc.Compile(bc, pins, circuit.Default()).Eng.(*circuit.Circuit)
}

// satSOLC compiles a random 3-SAT formula (nv variables, nc clauses) as an
// OR-tree SOLC with every clause output pinned true.
func satSOLC(t testing.TB, seed int64, nv, nc int) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	f := boolcirc.CNF{NumVars: nv}
	for k := 0; k < nc; k++ {
		var cl boolcirc.Clause
		for _, v := range rng.Perm(nv)[:3] {
			l := boolcirc.Lit(v + 1)
			if rng.Intn(2) == 0 {
				l = -l
			}
			cl = append(cl, l)
		}
		f.Clauses = append(f.Clauses, cl)
	}
	bc, _, outs, err := boolcirc.FromCNF(f)
	if err != nil {
		t.Fatal(err)
	}
	pins := make(map[boolcirc.Signal]bool, len(outs))
	for _, o := range outs {
		pins[o] = true
	}
	return solc.Compile(bc, pins, circuit.Default()).Eng.(*circuit.Circuit)
}

// TestSlowStateKernelBitIdentical steps IMEXStepper side by side with
// circuit.ReferenceSlowStep — the slow-state phase rebuilt from the
// public memristor and VCDCG methods — and demands every state bit and
// the energy accumulator agree after every step. Both sides call the
// memristor package's exp, so the check holds on any architecture.
func TestSlowStateKernelBitIdentical(t *testing.T) {
	const steps = 2000
	for _, tc := range []struct {
		name string
		c    *circuit.Circuit
	}{
		{"factor-n15-4bit", factorSOLC(15, 4)},
		{"sat-5vars-13clauses", satSOLC(t, 7, 5, 13)},
		{"multiplier-8bit-n143", factorSOLC(143, 8)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.c
			x := c.InitialState(rand.New(rand.NewSource(3)))
			st := circuit.NewIMEX(c, nil)
			h := 1e-3
			var energy float64
			for n := 0; n < steps; n++ {
				pre := x.Clone()
				if err := st.Step(c, float64(n)*h, h, x); err != nil {
					t.Fatal(err)
				}
				want, dE := circuit.ReferenceSlowStep(st, h, pre)
				energy += dE
				for k := range x {
					if math.Float64bits(x[k]) != math.Float64bits(want[k]) {
						t.Fatalf("step %d: state[%d] = %v (%#x), reference %v (%#x)",
							n, k, x[k], math.Float64bits(x[k]), want[k], math.Float64bits(want[k]))
					}
				}
				if math.Float64bits(st.Energy()) != math.Float64bits(energy) {
					t.Fatalf("step %d: Energy() = %v, reference %v", n, st.Energy(), energy)
				}
				c.ClampState(x)
			}
		})
	}
}

// slowSnapshots records the slow-state kernel inputs of the 6-bit
// multiplier SOLC (product pinned to 2021 = 43 × 47) every 100 steps over
// its first 2000 IMEX steps, so the benchmarks see the device mix of a
// running solve rather than one initial state.
func slowSnapshots(b *testing.B) (*circuit.Circuit, []circuit.SlowInputs) {
	c := factorSOLC(2021, 12)
	x := c.InitialState(rand.New(rand.NewSource(1)))
	st := circuit.NewIMEX(c, nil)
	h := 1e-3
	var snaps []circuit.SlowInputs
	pre := la.NewVector(len(x))
	for n := 0; n < 2000; n++ {
		pre.CopyFrom(x)
		if err := st.Step(c, float64(n)*h, h, x); err != nil {
			b.Fatal(err)
		}
		if n%100 == 99 {
			snaps = append(snaps, circuit.SlowStepInputs(st, pre))
		}
		c.ClampState(x)
	}
	return c, snaps
}

// BenchmarkMemristorKernel times memristor.Model.Advance over the 6-bit
// multiplier's memristors and reports ns per device update (the copy of
// the states into the advanced buffer included).
func BenchmarkMemristorKernel(b *testing.B) {
	c, snaps := slowSnapshots(b)
	m := c.Params.Mem
	h := 1e-3
	x := make([]float64, len(snaps[0].X))
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		in := &snaps[n%len(snaps)]
		copy(x, in.X)
		m.Advance(h, x, in.Sigma, in.D, in.G)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(x)), "ns/memristor")
}

// BenchmarkVCDCGKernel times device.VCDCG.Advance — FsOffset over all
// currents, then the i and s updates per generator — over the 6-bit
// multiplier's VCDCGs and reports ns per generator update (the copy of
// the states into the advanced buffers included).
func BenchmarkVCDCGKernel(b *testing.B) {
	c, snaps := slowSnapshots(b)
	dcg := c.Params.DCG
	h := 1e-3
	nd := len(snaps[0].I)
	i, s := make([]float64, nd), make([]float64, nd)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		in := &snaps[n%len(snaps)]
		copy(i, in.I)
		copy(s, in.S)
		dcg.Advance(h, in.V, i, s)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nd), "ns/generator")
}
