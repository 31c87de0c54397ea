package circuit_test

import (
	"math/rand"
	"testing"

	"repro/internal/boolcirc"
	"repro/internal/circuit"
	"repro/internal/solc"
)

// FuzzStampMatchesReference compiles generated circuits — random 3-SAT
// OR-trees through boolcirc.FromCNF, and multipliers of random widths with
// random product bits pinned — at a random DCM resistance R, and demands
// that the stamp plan's grouped kernels assemble the matrix and the
// right-hand side bit for bit as a branch-by-branch reference stamp does
// (circuit.StampMismatch), at several random draws of the conductances,
// shift, voltages and currents.
func FuzzStampMatchesReference(f *testing.F) {
	f.Add(uint8(0), int64(1), uint8(5), uint8(13), uint8(0))
	f.Add(uint8(0), int64(2), uint8(3), uint8(1), uint8(77))
	f.Add(uint8(0), int64(3), uint8(8), uint8(30), uint8(255))
	f.Add(uint8(1), int64(4), uint8(2), uint8(2), uint8(0))
	f.Add(uint8(1), int64(5), uint8(4), uint8(3), uint8(128))
	f.Add(uint8(1), int64(6), uint8(6), uint8(5), uint8(31))
	f.Add(uint8(3), int64(7), uint8(1), uint8(1), uint8(9))
	f.Fuzz(func(t *testing.T, kind uint8, seed int64, a, b, r uint8) {
		rng := rand.New(rand.NewSource(seed))
		var bc *boolcirc.Circuit
		pins := map[boolcirc.Signal]bool{}
		if kind%2 == 0 {
			f := boolcirc.Random3SAT(rng, 3+int(a)%6, 1+int(b)%24)
			var outs []boolcirc.Signal
			var err error
			if bc, _, outs, err = boolcirc.FromCNF(f); err != nil {
				t.Skip(err)
			}
			for _, o := range outs {
				pins[o] = true
			}
		} else {
			bc = boolcirc.New()
			prod := bc.Multiplier(bc.NewSignals(1+int(a)%6), bc.NewSignals(1+int(b)%6))
			for _, s := range prod {
				pins[s] = rng.Intn(2) == 1
			}
		}
		p := circuit.Default()
		p.R = 0.25 + float64(r)/32
		p.OmitVCDCG = kind%4 == 3
		c := solc.Compile(bc, pins, p).Eng.(*circuit.Circuit)
		for draw := 0; draw < 4; draw++ {
			if msg := c.StampMismatch(rng); msg != "" {
				t.Fatalf("%v (draw %d): %s", c, draw, msg)
			}
		}
	})
}
