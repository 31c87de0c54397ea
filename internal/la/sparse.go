package la

import "fmt"

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
// Duplicates sum in the order they were added, starting from +0, the same
// on every platform and Go release.
func (b *Builder) Compile() *CSR {
	m, _ := b.CompileIndexed()
	return m
}

// CompileIndexed is Compile that also reports where every entry went:
// pos[k] is the index in m.ColIdx and m.Val of the entry the k-th Add
// call stamped.
func (b *Builder) CompileIndexed() (m *CSR, pos []int32) {
	pos = make([]int32, len(b.entries))
	ci := make([]int32, len(b.entries))
	for k, e := range b.entries {
		pos[k], ci[k] = int32(e.Row), int32(e.Col)
	}
	m = CompilePattern(b.Rows, b.Cols, pos, ci, pos)
	for k, e := range b.entries {
		m.Val[pos[k]] += e.Val
	}
	return m, pos
}

// CompilePattern returns the sparsity pattern of the rows×cols matrix
// with an entry at (ri[k], ci[k]) for every k — each row sorted by
// column, duplicate positions merged, every value zero — and writes to
// pos[k] the index in ColIdx and Val of entry k. pos may be ri or ci
// itself: each entry's row and column are read before its index is
// written.
//
// The entries are bucketed by column with a counting sort, so a walk
// over the buckets appends every row's columns in ascending order and
// meets each duplicate right after the first copy of its position: no
// comparison sort, and nothing allocated but the CSR (the buckets are
// pooled scratch).
func CompilePattern(rows, cols int, ri, ci, pos []int32) *CSR {
	if len(ci) != len(ri) || len(pos) != len(ri) {
		panic(fmt.Sprintf("la: CompilePattern list lengths %d, %d and %d differ", len(ri), len(ci), len(pos)))
	}
	s := getScratch()
	defer putScratch(s)
	colPtr := resize(s.colPtr, cols+1)
	clear(colPtr)
	for _, c := range ci {
		colPtr[c+1]++
	}
	for c := 0; c < cols; c++ {
		colPtr[c+1] += colPtr[c]
	}
	byCol := resize(s.byCol, len(ci))
	for k, c := range ci {
		byCol[colPtr[c]] = int32(k)
		colPtr[c]++
	}

	// Count each row's distinct columns: mark holds the last column the
	// row took, and the walk delivers every row's columns ascending.
	m := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
	mark := resize(s.rowMark, rows)
	for r := range mark {
		mark[r] = -1
	}
	for _, k := range byCol {
		if r, c := ri[k], ci[k]; mark[r] != c {
			mark[r] = c
			m.RowPtr[r+1]++
		}
	}
	for r := 0; r < rows; r++ {
		m.RowPtr[r+1] += m.RowPtr[r]
	}
	nnz := m.RowPtr[rows]
	m.ColIdx, m.Val = make([]int, nnz), make([]float64, nnz)

	// The same walk fills the rows. mark is now each row's fill cursor;
	// an entry whose column is the last one its row took is a duplicate.
	for r := range mark {
		mark[r] = int32(m.RowPtr[r])
	}
	for _, k := range byCol {
		r, c := ri[k], int(ci[k])
		p := int(mark[r])
		if p == m.RowPtr[r] || m.ColIdx[p-1] != c {
			m.ColIdx[p] = c
			p++
			mark[r] = int32(p)
		}
		pos[k] = int32(p - 1)
	}
	s.colPtr, s.byCol, s.rowMark = colPtr, byCol, mark
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
