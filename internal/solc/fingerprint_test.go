package solc_test

import (
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/solc"
)

// TestDefaultPathFingerprint pins the bits of the production path — the
// sparse IMEX stepper on the capacitive form with circuit.Default, its
// step ramped from H toward the stability ceiling — on the 4-bit
// factorization of 15: the step count, the restart count and
// the exact t* of the winning read-out. Any change to a trajectory moves
// at least one of them, so a refactor that claims to leave the default
// path alone must leave this test passing unchanged. The constants are
// the same on every architecture: the kernels pin their FMA-fusable
// products with explicit roundings.
func TestDefaultPathFingerprint(t *testing.T) {
	const (
		wantSteps    = 189
		wantAttempts = 1
		wantTBits    = 0x3ffb8cc1817df0cb // t* = 1.7218642290381918
	)
	bc, _, _, pins := core.BuildCircuit(15, core.BitLen(15))
	opts := solc.DefaultOptions()
	opts.TEnd = 4
	opts.MaxAttempts = 32
	opts.Parallelism = 1
	opts.Seed = 1
	res, err := solc.Compile(bc, pins, circuit.Default()).Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved || res.Steps != wantSteps || res.Attempts != wantAttempts || math.Float64bits(res.T) != wantTBits {
		t.Fatalf("solved=%v steps=%d attempts=%d t*=%v (%#016x), want solved steps=%d attempts=%d t* bits %#016x",
			res.Solved, res.Steps, res.Attempts, res.T, math.Float64bits(res.T), wantSteps, wantAttempts, uint64(wantTBits))
	}
}
