package la

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// TestSparseLUMultiFactorSwitch switches one solver's numeric factor
// between two diagonal shifts of the same pattern by refactoring in place —
// what a stepper does when its step size changes: each refactor solves its
// own system, and returning to the first shift reproduces the first
// solution bit for bit, so no state leaks from the previous factor.
func TestSparseLUMultiFactorSwitch(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n := 25
	m := randShiftedSparse(rng, n, 0.2, 6).Compile()
	f, err := NewSparseLU(m)
	if err != nil {
		t.Fatal(err)
	}
	base := append([]float64(nil), m.Val...)
	b := NewVector(n)
	for i := range b {
		b[i] = 2*rng.Float64() - 1
	}
	solveAt := func(extra float64) Vector {
		copy(m.Val, base)
		for i := 0; i < n; i++ {
			for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
				if m.ColIdx[k] == i {
					m.Val[k] += extra
				}
			}
		}
		if err := f.Refactor(); err != nil {
			t.Fatal(err)
		}
		got := NewVector(n)
		f.SolveInto(got, b)
		want, err := SolveDense(m.ToDense(), b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("shift %v: x[%d] = %v, want %v", extra, i, got[i], want[i])
			}
		}
		return got
	}
	first := solveAt(0)
	solveAt(3)
	again := solveAt(0)
	for i := range first {
		if first[i] != again[i] {
			t.Fatalf("x[%d] after switching back = %v, want %v", i, again[i], first[i])
		}
	}
}

// TestSparseLUCloneSharedSymbolicPrivateNumeric pins the CloneFor
// contract every engine instance leans on: clones share
// the immutable symbolic arrays (same backing storage) but never alias
// numeric values or workspaces.
func TestSparseLUCloneSharedSymbolicPrivateNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 20
	m := randShiftedSparse(rng, n, 0.25, 8).Compile()
	f, err := NewSparseLU(m)
	if err != nil {
		t.Fatal(err)
	}
	m2 := &CSR{Rows: n, Cols: n, RowPtr: m.RowPtr, ColIdx: m.ColIdx, Val: append([]float64(nil), m.Val...)}
	cp, err := f.CloneFor(m2)
	if err != nil {
		t.Fatal(err)
	}
	// Symbolic structure is shared storage; numeric arrays are private.
	if &f.li[0] != &cp.li[0] || &f.ui[0] != &cp.ui[0] || &f.perm[0] != &cp.perm[0] {
		t.Fatal("clone does not share the symbolic arrays")
	}
	if &f.lx[0] == &cp.lx[0] || &f.ux[0] == &cp.ux[0] || &f.x[0] == &cp.x[0] {
		t.Fatal("clone aliases numeric storage with its parent")
	}
	// Refactoring the clone on its own values leaves the parent's factor
	// untouched.
	if err := f.Refactor(); err != nil {
		t.Fatal(err)
	}
	before := append([]float64(nil), f.ux...)
	for k := range m2.Val {
		m2.Val[k] *= 1.5
	}
	if err := cp.Refactor(); err != nil {
		t.Fatal(err)
	}
	for k := range before {
		if f.ux[k] != before[k] {
			t.Fatal("refactoring the clone mutated the parent's numeric values")
		}
	}
}

// TestSparseLUCloneConcurrentRefactor runs parent and clones
// concurrently — each refactoring and solving its own values — so the
// race detector can certify that shared symbolic state is read-only.
func TestSparseLUCloneConcurrentRefactor(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 30
	m := randShiftedSparse(rng, n, 0.2, 10).Compile()
	f, err := NewSparseLU(m)
	if err != nil {
		t.Fatal(err)
	}
	workers := make([]*SparseLU, 4)
	mats := make([]*CSR, 4)
	for w := range workers {
		mats[w] = &CSR{Rows: n, Cols: n, RowPtr: m.RowPtr, ColIdx: m.ColIdx, Val: append([]float64(nil), m.Val...)}
		if workers[w], err = f.CloneFor(mats[w]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, len(workers))
	for w := range workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lu, mat := workers[w], mats[w]
			rhs, x := NewVector(n), NewVector(n)
			for i := range rhs {
				rhs[i] = float64(w + i)
			}
			for pass := 0; pass < 50; pass++ {
				for i := 0; i < n; i++ {
					for k := mat.RowPtr[i]; k < mat.RowPtr[i+1]; k++ {
						if mat.ColIdx[k] == i {
							mat.Val[k] = 10 + float64(w) + float64(pass)/50
						}
					}
				}
				if err := lu.Refactor(); err != nil {
					errs[w] = err
					return
				}
				lu.SolveInto(x, rhs)
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
}
