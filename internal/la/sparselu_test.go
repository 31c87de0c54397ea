package la

import (
	"math"
	"math/rand"
	"testing"
)

// randShiftedSparse builds a random sparse n×n system with a diagonal
// shift large enough to keep the pivot-free factorization well posed —
// the same structure the circuit assembly produces (C/h·I + A with
// bounded conductances).
func randShiftedSparse(rng *rand.Rand, n int, density float64, shift float64) *Builder {
	b := NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, shift+rng.Float64())
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < density {
				b.Add(i, j, 2*rng.Float64()-1)
			}
		}
	}
	return b
}

// TestSparseLUMatchesDense is the property test of the sparse path: on
// random diagonally-shifted sparse systems the sparse solve must agree
// with the dense partial-pivoting LU to 1e-12.
func TestSparseLUMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(40)
		m := randShiftedSparse(rng, n, 0.15, 10).Compile()
		f, err := NewSparseLU(m)
		if err != nil {
			t.Fatalf("trial %d: symbolic: %v", trial, err)
		}
		if err := f.Refactor(); err != nil {
			t.Fatalf("trial %d: refactor: %v", trial, err)
		}
		dense, err := Factorize(m.ToDense())
		if err != nil {
			t.Fatalf("trial %d: dense factorize: %v", trial, err)
		}
		b := NewVector(n)
		for i := range b {
			b[i] = 2*rng.Float64() - 1
		}
		xs := NewVector(n)
		f.SolveInto(xs, b)
		xd := dense.Solve(b)
		for i := range xs {
			if math.Abs(xs[i]-xd[i]) > 1e-12 {
				t.Fatalf("trial %d (n=%d): x[%d] sparse %v dense %v (diff %g)",
					trial, n, i, xs[i], xd[i], math.Abs(xs[i]-xd[i]))
			}
		}
	}
}

// TestSparseLURefactorReuse changes only the numeric values of a fixed
// pattern and verifies the symbolic-once contract: refactor + solve match
// a from-scratch dense solve at every value set, with no re-analysis.
func TestSparseLURefactorReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 30
	b := randShiftedSparse(rng, n, 0.2, 8)
	m := b.Compile()
	f, err := NewSparseLU(m)
	if err != nil {
		t.Fatal(err)
	}
	rhs := NewVector(n)
	for i := range rhs {
		rhs[i] = rng.Float64()
	}
	xs := NewVector(n)
	for pass := 0; pass < 10; pass++ {
		// Rewrite values in place (pattern untouched), as the IMEX
		// assembly does between steps.
		for k := range m.Val {
			m.Val[k] = 2*rng.Float64() - 1
		}
		for i := 0; i < n; i++ {
			// Re-shift the diagonal to keep dominance.
			for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
				if m.ColIdx[k] == i {
					m.Val[k] = 8 + rng.Float64()
				}
			}
		}
		if err := f.Refactor(); err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		f.SolveInto(xs, rhs)
		xd, err := SolveDense(m.ToDense(), rhs)
		if err != nil {
			t.Fatalf("pass %d: dense: %v", pass, err)
		}
		for i := range xs {
			if math.Abs(xs[i]-xd[i]) > 1e-12 {
				t.Fatalf("pass %d: x[%d] sparse %v dense %v", pass, i, xs[i], xd[i])
			}
		}
	}
}

// TestSparseLUSolveAliasing verifies dst may alias b.
func TestSparseLUSolveAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randShiftedSparse(rng, 12, 0.3, 6).Compile()
	f, err := NewSparseLU(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Refactor(); err != nil {
		t.Fatal(err)
	}
	b := NewVector(12)
	for i := range b {
		b[i] = rng.Float64()
	}
	want := NewVector(12)
	f.SolveInto(want, b)
	f.SolveInto(b, b)
	for i := range b {
		if b[i] != want[i] {
			t.Fatalf("aliased solve differs at %d: %v vs %v", i, b[i], want[i])
		}
	}
}

// TestSparseLUSingular verifies a numerically singular column is reported,
// not silently divided through.
func TestSparseLUSingular(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Add(0, 0, 1)
	b.Add(0, 1, 1)
	b.Add(1, 0, 1)
	b.Add(1, 1, 1) // rank 1
	m := b.Compile()
	f, err := NewSparseLU(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Refactor(); err == nil {
		t.Fatal("expected singular-matrix error")
	}
}

// TestSparseLURefactorAfterSingular pins that a failed Refactor leaves
// nothing behind, which lets a solver serve the next trajectory after a
// rejected step. A NaN on one diagonal entry fails the pivot of that
// column with the rows below it still in the workspace; they are
// harmless because the first column to touch a row in the next Refactor
// assigns it from A before any update reads it. Once the value is
// restored the next Refactor must solve bit for bit as before; every
// column takes a turn.
func TestSparseLURefactorAfterSingular(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 30
	m := randShiftedSparse(rng, n, 0.2, 8).Compile()
	f, err := NewSparseLU(m)
	if err != nil {
		t.Fatal(err)
	}
	rhs := NewVector(n)
	for i := range rhs {
		rhs[i] = rng.Float64()
	}
	solve := func() Vector {
		t.Helper()
		if err := f.Refactor(); err != nil {
			t.Fatal(err)
		}
		x := NewVector(n)
		f.SolveInto(x, rhs)
		return x
	}
	want := solve()
	for i := 0; i < n; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if m.ColIdx[k] != i {
				continue
			}
			v := m.Val[k]
			m.Val[k] = math.NaN()
			if err := f.Refactor(); err == nil {
				t.Fatalf("diagonal %d: expected a singular-matrix error on NaN", i)
			}
			m.Val[k] = v
			got := solve()
			for r := range got {
				if math.Float64bits(got[r]) != math.Float64bits(want[r]) {
					t.Fatalf("diagonal %d: x[%d] after a failed refactor = %v, want %v", i, r, got[r], want[r])
				}
			}
		}
	}
}

// TestSparseLUStructurallySingular verifies a missing diagonal reach is
// caught at symbolic time.
func TestSparseLUStructurallySingular(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Add(0, 0, 1) // row/col 1 empty
	if _, err := NewSparseLU(b.Compile()); err == nil {
		t.Fatal("expected structural-singularity error")
	}
}

// TestSparseLUTridiagonalNoAllocRefactor spot-checks the zero-allocation
// contract of the numeric phase.
func TestSparseLUTridiagonalNoAllocRefactor(t *testing.T) {
	n := 64
	b := NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 4)
		if i > 0 {
			b.Add(i, i-1, -1)
			b.Add(i-1, i, -1)
		}
	}
	m := b.Compile()
	f, err := NewSparseLU(m)
	if err != nil {
		t.Fatal(err)
	}
	rhs := NewVector(n)
	for i := range rhs {
		rhs[i] = float64(i % 5)
	}
	dst := NewVector(n)
	allocs := testing.AllocsPerRun(20, func() {
		if err := f.Refactor(); err != nil {
			t.Fatal(err)
		}
		f.SolveInto(dst, rhs)
	})
	if allocs != 0 {
		t.Fatalf("Refactor+SolveInto allocated %v objects per run, want 0", allocs)
	}
	// RCM on a tridiagonal pattern must produce zero fill.
	if f.NNZFactors() != m.NNZ() {
		t.Fatalf("tridiagonal fill-in: factors %d nnz vs matrix %d", f.NNZFactors(), m.NNZ())
	}
}
