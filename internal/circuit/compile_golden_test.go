package circuit_test

import (
	"testing"

	"repro/internal/circuit"
)

// TestCompileGolden pins what Build compiles for three real circuits —
// the 4-bit multiplier of n = 15, one seeded random 3-SAT OR-tree (5
// variables, 13 clauses) and the 11-bit multiplier — through
// CompileDigest: the DCM branches and stamp-plan arrays, the operator and
// factor nonzeros, and the bits of one refactor + solve. The compile path
// may be rewritten for speed, but every artifact it produces must stay
// bit for bit the same.
func TestCompileGolden(t *testing.T) {
	cases := []struct {
		name           string
		c              *circuit.Circuit
		plan           uint64
		nnz, factorNNZ int
		solve          uint64
	}{
		{"factor-n15-4bit", factorSOLC(15, 4), 0xe3f4a2ee192fd9d6, 90, 130, 0xbbd5745d92a6d962},
		{"sat-5vars-13clauses-seed1", satSOLC(t, 1, 5, 13), 0x2cc7882f6c797377, 135, 173, 0xd59ed5c9aad1c9b2},
		{"multiplier-11bit-n2039", factorSOLC(2039, 11), 0xede7c20986f79b10, 1448, 3718, 0x117b194485c27d51},
	}
	for _, tc := range cases {
		plan, nnz, fnnz, solve := tc.c.CompileDigest()
		if plan != tc.plan || nnz != tc.nnz || fnnz != tc.factorNNZ || solve != tc.solve {
			t.Errorf("%s: plan %#016x nnz %d factor-nnz %d solve %#016x, want plan %#016x nnz %d factor-nnz %d solve %#016x",
				tc.name, plan, nnz, fnnz, solve, tc.plan, tc.nnz, tc.factorNNZ, tc.solve)
		}
	}
}
