package sat_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/sat"
)

// TestCDCLSearchPinned pins CDCL's search on the circuit CNFs of the
// primes that the seed-1 horizon benchmark workload draws for 8-11
// product bits: the decision and propagation counts of the UNSAT proof,
// and the bytes and objects the four proofs allocate together. The counts
// move only if the search itself changes, so a speedup of the clause
// bookkeeping must leave them alone.
func TestCDCLSearchPinned(t *testing.T) {
	cases := []struct {
		n                    uint64
		decisions, propagate int
	}{{157, 13, 680}, {409, 27, 1096}, {883, 37, 3180}, {1499, 48, 3791}}
	const maxBytes, maxObjects = 388_000, 10_500 // measures 377,128 B and 10,237 objects
	var before, after runtime.MemStats
	var total, objects uint64
	for _, tc := range cases {
		bc, _, _, pins := core.BuildCircuit(tc.n, core.BitLen(tc.n))
		f := bc.ToCNF(pins)
		runtime.ReadMemStats(&before)
		res := sat.CDCL(f, 0)
		runtime.ReadMemStats(&after)
		total += after.TotalAlloc - before.TotalAlloc
		objects += after.Mallocs - before.Mallocs
		if res.Status != sat.Unsatisfiable {
			t.Fatalf("n = %d: status %v, want UNSAT (prime)", tc.n, res.Status)
		}
		if res.Decisions != tc.decisions || res.Propagations != tc.propagate {
			t.Errorf("n = %d: decisions/propagations %d/%d, want %d/%d",
				tc.n, res.Decisions, res.Propagations, tc.decisions, tc.propagate)
		}
	}
	t.Logf("4 proofs allocate %d B in %d objects", total, objects)
	if total > maxBytes || objects > maxObjects {
		t.Errorf("4 proofs allocate %d B in %d objects, budget %d B and %d objects",
			total, objects, uint64(maxBytes), uint64(maxObjects))
	}
}
