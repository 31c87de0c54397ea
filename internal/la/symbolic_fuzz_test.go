package la

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// fuzzPattern draws a random shifted sparse pattern on n nodes from seed:
// every diagonal unless holes is set (then about one diagonal in eight is
// missing, exercising the full-diagonal precondition), off-diagonal
// entries at the given density, and dups extra copies of random entries
// already drawn. Values are small integers, so duplicates sum exactly in
// any order; a zero is negative half the time, so a lone -0 shows whether
// the sum starts from +0.
func fuzzPattern(n int, seed int64, density float64, dups int, holes bool) *Builder {
	rng := rand.New(rand.NewSource(seed))
	val := func() float64 {
		v := float64(rng.Intn(9) - 4)
		if v == 0 && rng.Intn(2) == 0 {
			v = math.Copysign(0, -1)
		}
		return v
	}
	b := NewBuilder(n, n)
	for i := 0; i < n; i++ {
		if !holes || rng.Intn(8) != 0 {
			b.Add(i, i, val())
		}
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < density {
				b.Add(i, j, val())
			}
		}
	}
	for k := 0; k < dups && len(b.entries) > 0; k++ {
		e := b.entries[rng.Intn(len(b.entries))]
		b.Add(e.Row, e.Col, val())
	}
	// Shuffle the insertion order: the circuit stamps rows out of order.
	rng.Shuffle(len(b.entries), func(i, j int) { b.entries[i], b.entries[j] = b.entries[j], b.entries[i] })
	return b
}

// FuzzSymbolicMatchesReference holds the counting-sort compile and
// symbolic phase to the sort-based reference (reference_test.go) on random
// shifted sparse patterns with duplicates: the same CSR (and a position
// map that points every added entry at its merged slot), adjacency,
// minimum-degree ordering, scatter plan and L/U structure, the
// full-diagonal precondition error on every pattern that misses a
// diagonal entry, and bit-identical Refactor + SolveInto
// output on a diagonally dominant value set. The seed corpus includes the
// empty system (n = 0, every circuit node pinned); plain go test runs it.
func FuzzSymbolicMatchesReference(f *testing.F) {
	f.Add(uint8(0), int64(1), uint8(50), uint8(0), false)
	f.Add(uint8(1), int64(2), uint8(0), uint8(3), false)
	f.Add(uint8(2), int64(3), uint8(255), uint8(4), false)
	f.Add(uint8(15), int64(4), uint8(40), uint8(200), false)
	f.Add(uint8(40), int64(5), uint8(20), uint8(255), false)
	f.Add(uint8(90), int64(6), uint8(8), uint8(120), false)
	f.Add(uint8(30), int64(7), uint8(30), uint8(60), true)
	f.Add(uint8(12), int64(8), uint8(255), uint8(9), true)
	f.Fuzz(func(t *testing.T, n uint8, seed int64, density, dups uint8, holes bool) {
		b := fuzzPattern(int(n)%128, seed, float64(density)/256, int(dups), holes)
		want := refCompile(b)
		m, pos := b.CompileIndexed()
		if m.Rows != want.Rows || m.Cols != want.Cols || !slices.Equal(m.RowPtr, want.RowPtr) ||
			!slices.Equal(m.ColIdx, want.ColIdx) || !bitsEqual(m.Val, want.Val) {
			t.Fatalf("Compile: got %+v, want %+v", m, want)
		}
		for k, e := range b.entries {
			if p := int(pos[k]); p < m.RowPtr[e.Row] || p >= m.RowPtr[e.Row+1] || m.ColIdx[p] != e.Col {
				t.Fatalf("entry %d at (%d,%d) mapped to %d", k, e.Row, e.Col, p)
			}
		}

		refAdj := refSymmetrizedAdjacency(m)
		adj := symmetrizedAdjacency(m)
		for i, nb := range refAdj {
			if !slices.Equal(adj.nbrs(i), nb) {
				t.Fatalf("adjacency of %d: got %v, want %v", i, adj.nbrs(i), nb)
			}
		}
		if got, want := mdOrder(adj), refMDOrder(refAdj); !slices.Equal(got, want) {
			t.Fatalf("mdOrder: got %v, want %v", got, want)
		}

		ref, refErr := refNewSparseLU(m)
		lu, err := NewSparseLU(m)
		if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
			t.Fatalf("NewSparseLU error %v, want %v", err, refErr)
		}
		if err != nil {
			if !errors.Is(err, errNoDiagonal) {
				t.Fatalf("NewSparseLU error %v, want the full-diagonal precondition", err)
			}
			return
		}
		if !slices.Equal(lu.perm, ref.perm) ||
			!slices.Equal(lu.aColPtr, ref.aColPtr) || !slices.Equal(lu.aRow, ref.aRow) || !slices.Equal(lu.aSrc, ref.aSrc) ||
			!slices.Equal(lu.lp, ref.lp) || !slices.Equal(lu.li, ref.li) ||
			!slices.Equal(lu.up, ref.up) || !slices.Equal(lu.ui, ref.ui) ||
			len(lu.lx) != len(ref.lx) || len(lu.ux) != len(ref.ux) || lu.NNZFactors() != ref.NNZFactors() {
			t.Fatal("symbolic factorization differs from the reference")
		}

		// Strictly row-diagonally dominant values: the pivot-free LU is
		// then well posed under any symmetric permutation.
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < m.Rows; i++ {
			d, off := 0, 0.0
			for t := m.RowPtr[i]; t < m.RowPtr[i+1]; t++ {
				if m.ColIdx[t] == i {
					d = t
					continue
				}
				m.Val[t] = 2*rng.Float64() - 1
				off += math.Abs(m.Val[t])
			}
			m.Val[d] = 1 + off + rng.Float64()
		}
		err, refErr = lu.Refactor(), ref.Refactor()
		if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
			t.Fatalf("Refactor error %v, want %v", err, refErr)
		}
		if err != nil {
			return
		}
		rhs := NewVector(m.Rows)
		for i := range rhs {
			rhs[i] = 2*rng.Float64() - 1
		}
		x, refX := NewVector(m.Rows), NewVector(m.Rows)
		lu.SolveInto(x, rhs)
		ref.SolveInto(refX, rhs)
		if !bitsEqual(lu.lx, ref.lx) || !bitsEqual(lu.ux, ref.ux) || !bitsEqual(x, refX) {
			t.Fatal("numeric factors or solve differ from the reference")
		}
	})
}

func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}
