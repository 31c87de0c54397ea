package la

import (
	"fmt"
	"sort"
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
func (b *Builder) Compile() *CSR {
	ents := make([]Triplet, len(b.entries))
	copy(ents, b.entries)
	sort.Slice(ents, func(i, j int) bool {
		if ents[i].Row != ents[j].Row {
			return ents[i].Row < ents[j].Row
		}
		return ents[i].Col < ents[j].Col
	})
	m := &CSR{Rows: b.Rows, Cols: b.Cols, RowPtr: make([]int, b.Rows+1)}
	for k := 0; k < len(ents); {
		r, c := ents[k].Row, ents[k].Col
		var sum float64
		for k < len(ents) && ents[k].Row == r && ents[k].Col == c {
			sum += ents[k].Val
			k++
		}
		m.ColIdx = append(m.ColIdx, c)
		m.Val = append(m.Val, sum)
		m.RowPtr[r+1]++
	}
	for i := 0; i < b.Rows; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	return m
}

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
