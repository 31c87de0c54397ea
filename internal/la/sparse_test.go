package la

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBuilderDuplicatesSummed(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Add(0, 0, 1)
	b.Add(0, 0, 2)
	b.Add(1, 1, -3)
	m := b.Compile()
	if got := m.At(0, 0); got != 3 {
		t.Fatalf("At(0,0) = %v, want 3 (duplicates summed)", got)
	}
	if got := m.At(1, 1); got != -3 {
		t.Fatalf("At(1,1) = %v, want -3", got)
	}
	if got := m.At(0, 1); got != 0 {
		t.Fatalf("At(0,1) = %v, want 0", got)
	}
}

// TestBuilderCancellationKept pins the explicit-zero contract: entries
// summing to exactly zero stay in the pattern, so two compiles of the same
// topology always agree structurally regardless of the numeric values.
func TestBuilderCancellationKept(t *testing.T) {
	b := NewBuilder(1, 1)
	b.Add(0, 0, 5)
	b.Add(0, 0, -5)
	m := b.Compile()
	if m.NNZ() != 1 {
		t.Fatalf("NNZ = %d, want 1 (explicit zero kept after exact cancellation)", m.NNZ())
	}
	if got := m.At(0, 0); got != 0 {
		t.Fatalf("At(0,0) = %v, want explicit 0", got)
	}
}

// TestBuilderPatternValueIndependent compiles one topology under two value
// assignments — one with an exact cancellation — and requires identical
// RowPtr/ColIdx, the invariant symbolic LU reuse rests on.
func TestBuilderPatternValueIndependent(t *testing.T) {
	build := func(v1, v2 float64) *CSR {
		b := NewBuilder(3, 3)
		for i := 0; i < 3; i++ {
			b.Add(i, i, 1)
		}
		b.Add(0, 2, v1)
		b.Add(0, 2, v2)
		b.Add(2, 0, 0) // explicit structural zero
		return b.Compile()
	}
	a := build(3, 4)
	z := build(3, -3)
	if a.NNZ() != z.NNZ() {
		t.Fatalf("NNZ differs between compiles: %d vs %d", a.NNZ(), z.NNZ())
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != z.RowPtr[i] {
			t.Fatalf("RowPtr differs at %d: %v vs %v", i, a.RowPtr, z.RowPtr)
		}
	}
	for k := range a.ColIdx {
		if a.ColIdx[k] != z.ColIdx[k] {
			t.Fatalf("ColIdx differs at %d: %v vs %v", k, a.ColIdx, z.ColIdx)
		}
	}
}

func TestCSRMulVecKnown(t *testing.T) {
	b := NewBuilder(2, 3)
	b.Add(0, 0, 1)
	b.Add(0, 2, 2)
	b.Add(1, 1, 3)
	m := b.Compile()
	dst := NewVector(2)
	m.MulVec(dst, Vector{1, 2, 3})
	if dst[0] != 7 || dst[1] != 6 {
		t.Fatalf("got %v, want [7 6]", dst)
	}
}

// Property: CSR.MulVec agrees with the dense expansion on random sparse
// matrices.
func TestCSRMatchesDenseProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := 1 + r.Intn(15)
		cols := 1 + r.Intn(15)
		b := NewBuilder(rows, cols)
		nnz := r.Intn(4 * rows)
		for k := 0; k < nnz; k++ {
			b.Add(r.Intn(rows), r.Intn(cols), r.NormFloat64())
		}
		m := b.Compile()
		d := m.ToDense()
		v := NewVector(cols)
		for i := range v {
			v[i] = r.NormFloat64()
		}
		got := NewVector(rows)
		want := NewVector(rows)
		m.MulVec(got, v)
		d.MulVec(want, v)
		return got.MaxAbsDiff(want) < 1e-12
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestCSRRowPtrInvariant(t *testing.T) {
	b := NewBuilder(4, 4)
	b.Add(3, 0, 1)
	b.Add(0, 3, 1)
	b.Add(2, 2, 1)
	m := b.Compile()
	if m.RowPtr[0] != 0 || m.RowPtr[4] != m.NNZ() {
		t.Fatalf("RowPtr invariant violated: %v nnz=%d", m.RowPtr, m.NNZ())
	}
	for i := 0; i < 4; i++ {
		if m.RowPtr[i] > m.RowPtr[i+1] {
			t.Fatalf("RowPtr not monotone: %v", m.RowPtr)
		}
	}
}
