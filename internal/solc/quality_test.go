package solc_test

import (
	"testing"

	"repro/internal/core"
)

// TestSingleAttemptSolveCounts counts how many single restart attempts
// reach a verified factorization: one attempt to T = 100 at the default
// step policy, seeds 1000, 2000, …, 12000, on n = 21, 33 and 35. The
// counts are exact and repeat on every host (the default path is bit
// reproducible), so they pin solve quality where speed metrics cannot
// see it: a faster step policy that loses single-attempt solves shows
// here first. A later step-policy change may move a count only inside a
// margin it states, such as the binomial two-sigma band
// 2·√(12·p·(1−p)) around the count with p = count/12, and must update
// the constants below with its measured counts.
func TestSingleAttemptSolveCounts(t *testing.T) {
	// The count runs on one goroutine: the race detector has nothing to
	// check in it and would only run it about 15× slower.
	if testing.Short() || raceEnabled {
		t.Skip("36 attempts to T = 100: skipped under -short and -race")
	}
	for _, tc := range []struct {
		n    uint64
		want int
	}{{21, 9}, {33, 2}, {35, 10}} {
		solved := 0
		for k := int64(1); k <= 12; k++ {
			cfg := core.DefaultConfig()
			cfg.TEnd = 100
			cfg.MaxAttempts = 1
			cfg.Parallelism = 1
			cfg.Seed = 1000 * k
			res, err := core.NewFactorizer(cfg).Factor(tc.n)
			if err != nil {
				t.Fatal(err)
			}
			if res.Solved {
				solved++
			}
		}
		t.Logf("n = %d: %d of 12 single attempts verified", tc.n, solved)
		if solved != tc.want {
			t.Errorf("n = %d: %d of 12 single attempts verified, want %d", tc.n, solved, tc.want)
		}
	}
}
