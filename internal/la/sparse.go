package la

import (
	"fmt"
	"slices"
)

// Triplet is one (row, col, value) entry used while building a sparse matrix.
type Triplet struct {
	Row, Col int
	Val      float64
}

// Builder accumulates triplets for a sparse matrix; duplicate (row, col)
// entries are summed when compiled, matching circuit-stamping semantics.
type Builder struct {
	Rows, Cols int
	entries    []Triplet
}

// NewBuilder returns an empty builder for a Rows×Cols matrix.
func NewBuilder(rows, cols int) *Builder {
	return &Builder{Rows: rows, Cols: cols}
}

// Add accumulates v at (i, j). A zero v still records the entry: the
// position becomes an explicit structural nonzero, so the compiled
// sparsity pattern depends only on the stamped topology, never on the
// numeric values (symbolic factorizations stay reusable).
func (b *Builder) Add(i, j int, v float64) {
	if i < 0 || i >= b.Rows || j < 0 || j >= b.Cols {
		panic(fmt.Sprintf("la: Builder.Add out of range (%d,%d) in %dx%d", i, j, b.Rows, b.Cols))
	}
	b.entries = append(b.entries, Triplet{i, j, v})
}

// NNZ returns the number of accumulated (possibly duplicate) entries.
func (b *Builder) NNZ() int { return len(b.entries) }

// CSR is a compressed-sparse-row matrix.
type CSR struct {
	Rows, Cols int
	RowPtr     []int
	ColIdx     []int
	Val        []float64
}

// Compile sums duplicates and produces the CSR form. Entries that sum to
// exactly zero are kept as explicit zeros: dropping them would make the
// sparsity pattern value-dependent, silently invalidating any symbolic
// factorization computed for the same topology at different values.
//
// The triplets are ordered by two stable counting sorts, by column and
// then by row, so each row comes out sorted by column with its duplicates
// adjacent in insertion order; duplicates therefore sum in the order they
// were added, the same on every platform and Go release.
func (b *Builder) Compile() *CSR {
	m, _ := b.CompileIndexed()
	return m
}

// CompileIndexed is Compile that also reports where every entry went:
// pos[k] is the index in m.ColIdx and m.Val of the entry the k-th Add
// call stamped.
func (b *Builder) CompileIndexed() (m *CSR, pos []int32) {
	ents := b.entries
	// Stable counting sort by column, then by row.
	next := make([]int32, max(b.Rows, b.Cols)+1)
	for _, e := range ents {
		next[e.Col+1]++
	}
	for c := 0; c < b.Cols; c++ {
		next[c+1] += next[c]
	}
	byCol := make([]int32, len(ents))
	for i, e := range ents {
		byCol[next[e.Col]] = int32(i)
		next[e.Col]++
	}
	clear(next)
	for _, e := range ents {
		next[e.Row+1]++
	}
	for r := 0; r < b.Rows; r++ {
		next[r+1] += next[r]
	}
	byRow := make([]int32, len(ents))
	for _, i := range byCol {
		r := ents[i].Row
		byRow[next[r]] = i
		next[r]++
	}

	uniq := 0
	for k, i := range byRow {
		if k == 0 || !samePos(ents[byRow[k-1]], ents[i]) {
			uniq++
		}
	}
	m = &CSR{
		Rows: b.Rows, Cols: b.Cols, RowPtr: make([]int, b.Rows+1),
		ColIdx: make([]int, 0, uniq), Val: make([]float64, 0, uniq),
	}
	pos = make([]int32, len(ents))
	for k := 0; k < len(byRow); {
		e := ents[byRow[k]]
		var sum float64
		for ; k < len(byRow) && samePos(ents[byRow[k]], e); k++ {
			sum += ents[byRow[k]].Val
			pos[byRow[k]] = int32(len(m.Val))
		}
		m.ColIdx = append(m.ColIdx, e.Col)
		m.Val = append(m.Val, sum)
		m.RowPtr[e.Row+1]++
	}
	for i := 0; i < b.Rows; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	return m, pos
}

// Reserve grows the builder's capacity so that n more Add calls do not
// reallocate.
func (b *Builder) Reserve(n int) { b.entries = slices.Grow(b.entries, n) }

func samePos(a, b Triplet) bool { return a.Row == b.Row && a.Col == b.Col }

// NNZ returns the number of stored nonzeros.
func (m *CSR) NNZ() int { return len(m.Val) }

// MulVec computes dst = m*v. dst must not alias v.
func (m *CSR) MulVec(dst, v Vector) {
	if len(v) != m.Cols || len(dst) != m.Rows {
		panic("la: CSR.MulVec shape mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		var s float64
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			s += float64(m.Val[k] * v[m.ColIdx[k]])
		}
		dst[i] = s
	}
}

// MulVecAdd computes dst += c * m*v. dst must not alias v.
func (m *CSR) MulVecAdd(dst Vector, c float64, v Vector) {
	if len(v) != m.Cols || len(dst) != m.Rows {
		panic("la: CSR.MulVecAdd shape mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		var s float64
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			s += float64(m.Val[k] * v[m.ColIdx[k]])
		}
		dst[i] += float64(c * s)
	}
}

// At returns m[i,j] (zero when not stored). Intended for tests; O(row nnz).
func (m *CSR) At(i, j int) float64 {
	for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
		if m.ColIdx[k] == j {
			return m.Val[k]
		}
	}
	return 0
}

// ToDense expands m into a dense matrix; intended for tests and small
// implicit solves.
func (m *CSR) ToDense() *Dense {
	d := NewDense(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			d.Set(i, m.ColIdx[k], m.Val[k])
		}
	}
	return d
}
