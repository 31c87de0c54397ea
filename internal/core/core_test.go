package core

import (
	"strings"
	"testing"

	"repro/internal/classical"
)

func TestWordSizes(t *testing.T) {
	// Sec. VII-A: np = nn-1, nq = ⌊nn/2⌋.
	np, nq := WordSizes(6)
	if np != 5 || nq != 3 {
		t.Fatalf("WordSizes(6) = %d,%d, want 5,3", np, nq)
	}
	np, nq = WordSizes(8)
	if np != 7 || nq != 4 {
		t.Fatalf("WordSizes(8) = %d,%d, want 7,4", np, nq)
	}
}

func TestBitLen(t *testing.T) {
	cases := []struct {
		n    uint64
		want int
	}{{0, 0}, {1, 1}, {2, 2}, {3, 2}, {35, 6}, {255, 8}, {256, 9}}
	for _, c := range cases {
		if got := BitLen(c.n); got != c.want {
			t.Fatalf("BitLen(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestPrecision(t *testing.T) {
	if p := Precision([]uint64{3, 5, 6}); p != 3 {
		t.Fatalf("Precision = %d, want 3", p)
	}
	if p := Precision([]uint64{1}); p != 1 {
		t.Fatalf("Precision = %d, want 1", p)
	}
}

func TestBuildCircuitGateCount(t *testing.T) {
	// Fig. 11 scaling check: the SOLC grows as O(nn²) gates.
	count := func(nn int) int {
		bc, _, _, _ := BuildCircuit(1<<uint(nn-1), nn)
		return len(bc.Gates)
	}
	g6, g12, g24 := count(6), count(12), count(24)
	// Quadratic growth: doubling nn should roughly quadruple gates.
	r1 := float64(g12) / float64(g6)
	r2 := float64(g24) / float64(g12)
	if r1 < 2.5 || r1 > 6 || r2 < 2.5 || r2 > 6 {
		t.Fatalf("gate growth not ~quadratic: %d, %d, %d (ratios %.2f, %.2f)",
			g6, g12, g24, r1, r2)
	}
}

func TestFactorizerRejectsTiny(t *testing.T) {
	f := NewFactorizer(DefaultConfig())
	if _, err := f.Factor(3); err == nil {
		t.Fatal("n < 4 should error")
	}
}

func TestFactor35(t *testing.T) {
	if testing.Short() {
		t.Skip("dynamical run")
	}
	cfg := DefaultConfig()
	cfg.TEnd = 100
	cfg.MaxAttempts = 4
	f := NewFactorizer(cfg)
	res, err := f.Factor(35)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("35 not factored: %s (%s)", res.Reason, res.Metrics)
	}
	if res.P != 5 || res.Q != 7 {
		t.Fatalf("got %d×%d, want 5×7", res.P, res.Q)
	}
	if res.Metrics.ConvergenceTime <= 0 || res.Metrics.Gates == 0 {
		t.Fatalf("metrics not populated: %s", res.Metrics)
	}
	// Cross-check against the classical baseline.
	p, q := classical.FactorSemiprime(35)
	if p != res.P || q != res.Q {
		t.Fatalf("SOLC and classical disagree: %d×%d vs %d×%d", res.P, res.Q, p, q)
	}
}

func TestFactorTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("dynamical run")
	}
	cfg := DefaultConfig()
	cfg.TEnd = 100
	cfg.MaxAttempts = 4
	cfg.TraceNodes = 4
	cfg.TraceEvery = 20
	f := NewFactorizer(cfg)
	res, err := f.Factor(35)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || res.Trace.Len() == 0 {
		t.Fatal("trace requested but empty")
	}
}

func TestSubsetSumSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("dynamical run")
	}
	cfg := DefaultConfig()
	cfg.TEnd = 100
	cfg.MaxAttempts = 4
	ss := NewSubsetSum(cfg)
	values := []uint64{3, 5, 6}
	res, err := ss.Solve(values, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("subset-sum not solved: %s (%s)", res.Reason, res.Metrics)
	}
	if classical.ApplyMask(values, res.Mask) != 8 {
		t.Fatalf("mask %b does not sum to 8", res.Mask)
	}
	// The DP baseline agrees that a solution exists.
	if _, ok := classical.SubsetSumDP(values, 8); !ok {
		t.Fatal("baseline disagrees")
	}
}

func TestSubsetSumValidation(t *testing.T) {
	ss := NewSubsetSum(DefaultConfig())
	if _, err := ss.Solve(nil, 5); err == nil {
		t.Fatal("empty instance should error")
	}
	if _, err := ss.Solve([]uint64{0, 3}, 3); err == nil {
		t.Fatal("zero values should error")
	}
	if _, err := ss.Solve([]uint64{1, 3}, 0); err == nil {
		t.Fatal("zero target should error (non-empty subset required)")
	}
}

// TestSubsetSumTargetBeyondSumWidth pins targets with bits above the sum
// word: no subset can reach them, so Solve reports unsolved without
// integrating (instead of solving for the truncated target), in
// agreement with the DP baseline.
func TestSubsetSumTargetBeyondSumWidth(t *testing.T) {
	cases := []struct {
		values []uint64
		target uint64
	}{
		{[]uint64{3, 5}, 16},     // 16 mod 2^4 = 0
		{[]uint64{3, 5}, 16 + 8}, // truncates to the reachable 8
		{[]uint64{2, 3, 7}, 64},  // above the 5-bit sum word
	}
	ss := NewSubsetSum(DefaultConfig())
	for _, tc := range cases {
		res, err := ss.Solve(tc.values, tc.target)
		if err != nil {
			t.Fatalf("%v target %d: %v", tc.values, tc.target, err)
		}
		if res.Solved || !strings.Contains(res.Reason, "no subset can reach it") {
			t.Fatalf("%v target %d: solved=%v reason %q, want unsolved as unreachable",
				tc.values, tc.target, res.Solved, res.Reason)
		}
		if _, ok := classical.SubsetSumDP(tc.values, tc.target); ok {
			t.Fatalf("%v target %d: DP baseline finds a subset", tc.values, tc.target)
		}
	}
}

// TestSubsetSumSingleValue covers the single-value network, where every
// set bit of the sum word is the one selector signal: a target whose bits
// disagree there is unreachable and must come back unsolved without
// integrating, not pin the signal to one of the two bits and fail core's
// arithmetic check, while the value itself still solves.
func TestSubsetSumSingleValue(t *testing.T) {
	ss := NewSubsetSum(DefaultConfig())
	for _, target := range []uint64{1, 2} {
		res, err := ss.Solve([]uint64{3}, target)
		if err != nil {
			t.Fatalf("target %d: %v", target, err)
		}
		if res.Solved || !strings.Contains(res.Reason, "no subset can reach it") || res.Metrics.Launched != 0 {
			t.Fatalf("target %d: solved=%v launched=%d reason %q, want unsolved as unreachable before any attempt",
				target, res.Solved, res.Metrics.Launched, res.Reason)
		}
		if _, ok := classical.SubsetSumDP([]uint64{3}, target); ok {
			t.Fatalf("target %d: DP baseline finds a subset", target)
		}
	}
	res, err := ss.Solve([]uint64{3}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved || res.Mask != 1 {
		t.Fatalf("target 3: solved=%v mask %b reason %q, want the selector on", res.Solved, res.Mask, res.Reason)
	}
}

func TestConfigPresets(t *testing.T) {
	d := DefaultConfig()
	if d.StepH <= 0 || d.MaxAttempts < 1 {
		t.Fatalf("bad default config: %+v", d)
	}
	p := PaperConfig()
	// Table II pins.
	if p.Params.Mem.Ron != 1e-2 || p.Params.Mem.Roff != 1 || p.Params.Mem.Alpha != 60 {
		t.Fatalf("paper preset wrong: %+v", p.Params.Mem)
	}
	if p.Params.DCG.Q != 10 || p.Params.DCG.IMax != 20 || p.Params.DCG.Gamma != 60 {
		t.Fatalf("paper preset DCG wrong: %+v", p.Params.DCG)
	}
}
