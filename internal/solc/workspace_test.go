package solc

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/circuit"
)

// TestWorkspaceReuseLeavesNothing replays the fixtures' sequential solve
// attempt by attempt. Attempt 1 runs on the workspace attempt 0 left in
// the pool, so anything the reset missed would move its trajectory: its
// step, evaluation and energy totals must equal those of seeds
// horizonSeed and horizonSeed+1 each solved alone on a fresh compile, and
// the winner's t* bits those of the replay.
func TestWorkspaceReuseLeavesNothing(t *testing.T) {
	pf := fixturePortfolio()
	res, err := pf.Solve(fixtureOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved || res.WinnerAttempt != 1 || res.Launched != 2 {
		t.Fatalf("solved=%v winner=%d launched=%d, want attempt 1 to win after attempt 0 fails",
			res.Solved, res.WinnerAttempt, res.Launched)
	}
	if n := len(pf.cs.pool.idle); n != 1 {
		t.Fatalf("pool holds %d workspaces after a sequential solve, want 1", n)
	}
	var alone [2]Result
	for k := range alone {
		opts := fixtureOptions(1)
		opts.MaxAttempts = 1
		opts.Seed = horizonSeed + int64(k)
		if alone[k], err = fixturePortfolio().Solve(opts); err != nil {
			t.Fatal(err)
		}
	}
	if steps := alone[0].Steps + alone[1].Steps; res.Steps != steps {
		t.Errorf("steps = %d, want %d + %d", res.Steps, alone[0].Steps, alone[1].Steps)
	}
	if fevals := alone[0].FEvals + alone[1].FEvals; res.FEvals != fevals {
		t.Errorf("fevals = %d, want %d + %d", res.FEvals, alone[0].FEvals, alone[1].FEvals)
	}
	if e := alone[0].Energy + alone[1].Energy; math.Float64bits(res.Energy) != math.Float64bits(e) {
		t.Errorf("energy = %v, want %v + %v = %v", res.Energy, alone[0].Energy, alone[1].Energy, e)
	}
	if !alone[1].Solved || math.Float64bits(res.T) != math.Float64bits(alone[1].T) {
		t.Errorf("t* = %v, replay of seed %d: solved=%v t* = %v", res.T, horizonSeed+1, alone[1].Solved, alone[1].T)
	}
}

// TestRestartAllocations bounds what an extra restart allocates. On the
// 5-bit × 3-bit multiplier pinned to the prime 47 no attempt reads out,
// so a 9-attempt solve runs eight more attempts than a 1-attempt one;
// with pooled workspaces each may cost at most 1 KB and 8 objects
// (rebuilding the engine clone, stepper, state and RNG per attempt cost
// about 43.7 KB and 27 objects).
func TestRestartAllocations(t *testing.T) {
	bc, pins := productProblem(47, 5, 3)
	cs := Compile(bc, pins, circuit.Default())
	measure := func(attempts int) (bytes, objects float64) {
		opts := DefaultOptions()
		opts.TEnd = 0.05
		opts.MaxAttempts = attempts
		opts.Parallelism = 1
		// The least of a few runs discards allocations by the runtime
		// itself; the first run fills the workspace pool.
		bytes, objects = math.Inf(1), math.Inf(1)
		for rep := 0; rep < 4; rep++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			res, err := cs.Solve(opts)
			runtime.ReadMemStats(&m1)
			if err != nil {
				t.Fatal(err)
			}
			if res.Solved || res.Launched != attempts {
				t.Fatalf("prime 47: solved=%v launched=%d, want %d unsolved attempts", res.Solved, res.Launched, attempts)
			}
			bytes = math.Min(bytes, float64(m1.TotalAlloc-m0.TotalAlloc))
			objects = math.Min(objects, float64(m1.Mallocs-m0.Mallocs))
		}
		return bytes, objects
	}
	b1, o1 := measure(1)
	b9, o9 := measure(9)
	perBytes, perObjects := (b9-b1)/8, (o9-o1)/8
	t.Logf("per extra attempt: %.0f B, %.2f objects", perBytes, perObjects)
	if perBytes > 1024 || perObjects > 8 {
		t.Fatalf("an extra restart allocates %.0f B and %.2f objects, want at most 1024 B and 8", perBytes, perObjects)
	}
}
