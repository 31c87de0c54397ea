package la

// The reference symbolic phase: the sort-based Builder.Compile,
// NewSparseLU, analyze, symmetrizedAdjacency and mdOrder as they stood
// before the compile path was rewritten to counting sorts and presized
// arrays. FuzzSymbolicMatchesReference holds the production
// path to these, array for array.

import (
	"fmt"
	"sort"
)

// refCompile is the reference Builder.Compile: one reflection sort of the
// triplets by (row, col), then a merge of duplicate positions.
func refCompile(b *Builder) *CSR {
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

// refNewSparseLU is the reference NewSparseLU: a full-diagonal check,
// then the analysis under the minimum-degree ordering.
func refNewSparseLU(a *CSR) (*SparseLU, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("la: SparseLU requires a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	for i := 0; i < a.Rows; i++ {
		found := false
		for t := a.RowPtr[i]; t < a.RowPtr[i+1]; t++ {
			found = found || a.ColIdx[t] == i
		}
		if !found {
			return nil, errNoDiagonal
		}
	}
	return refAnalyze(a, refMDOrder(refSymmetrizedAdjacency(a)))
}

// refAnalyze is the reference analyze: per-column sorts of the scatter
// plan and a copy of each L column's pattern.
func refAnalyze(a *CSR, perm []int) (*SparseLU, error) {
	n := a.Rows
	f := &SparseLU{n: n, a: a, perm: perm}
	inv := make([]int, n)
	for k, old := range perm {
		inv[old] = k
	}

	// Permuted column structure of A with back-pointers into a.Val.
	type ent struct{ row, src int32 }
	cols := make([][]ent, n)
	for i := 0; i < n; i++ {
		pi := int32(inv[i])
		for t := a.RowPtr[i]; t < a.RowPtr[i+1]; t++ {
			pj := inv[a.ColIdx[t]]
			cols[pj] = append(cols[pj], ent{pi, int32(t)})
		}
	}
	f.aColPtr = make([]int32, n+1)
	for j := 0; j < n; j++ {
		c := cols[j]
		sort.Slice(c, func(x, y int) bool { return c[x].row < c[y].row })
		f.aColPtr[j+1] = f.aColPtr[j] + int32(len(c))
		for _, e := range c {
			f.aRow = append(f.aRow, e.row)
			f.aSrc = append(f.aSrc, e.src)
		}
	}

	// Symbolic Gilbert-Peierls elimination: the pattern of column j of
	// L+U is the reach of A(:,j)'s pattern through the DAG of already
	// computed L columns (edge k→i when L[i,k] ≠ 0). Ascending index order
	// is a valid topological order for the lower-triangular dependency, so
	// the numeric phase can simply walk each stored pattern in order.
	f.lp = make([]int32, n+1)
	f.up = make([]int32, n+1)
	lRows := make([][]int32, n) // strictly-lower pattern of each L column
	mark := make([]int, n)
	for i := range mark {
		mark[i] = -1
	}
	stack := make([]int32, 0, n)
	reach := make([]int, 0, n)
	for j := 0; j < n; j++ {
		reach = reach[:0]
		for t := f.aColPtr[j]; t < f.aColPtr[j+1]; t++ {
			r := f.aRow[t]
			if mark[r] == j {
				continue
			}
			// Iterative DFS through L columns below row r.
			stack = append(stack[:0], r)
			for len(stack) > 0 {
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if mark[v] == j {
					continue
				}
				mark[v] = j
				reach = append(reach, int(v))
				if int(v) < j {
					for _, w := range lRows[v] {
						if mark[w] != j {
							stack = append(stack, w)
						}
					}
				}
			}
		}
		sort.Ints(reach)
		hasDiag := false
		var lower []int32
		for _, r := range reach {
			switch {
			case r < j:
				f.ui = append(f.ui, int32(r))
			case r == j:
				hasDiag = true
			default:
				lower = append(lower, int32(r))
			}
		}
		if !hasDiag {
			return nil, fmt.Errorf("la: SparseLU structurally singular (no diagonal reach at column %d)", perm[j])
		}
		f.ui = append(f.ui, int32(j)) // diagonal closes the column
		f.up[j+1] = int32(len(f.ui))
		lRows[j] = lower
		f.li = append(f.li, lower...)
		f.lp[j+1] = int32(len(f.li))
	}
	f.lx = make([]float64, len(f.li))
	f.ux = make([]float64, len(f.ui))
	f.x = make([]float64, n)
	f.b = make([]float64, n)
	return f, nil
}

// refSymmetrizedAdjacency is the reference symmetrizedAdjacency.
func refSymmetrizedAdjacency(a *CSR) [][]int {
	n := a.Rows
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		for t := a.RowPtr[i]; t < a.RowPtr[i+1]; t++ {
			j := a.ColIdx[t]
			if i == j {
				continue
			}
			adj[i] = append(adj[i], j)
			adj[j] = append(adj[j], i)
		}
	}
	for i := range adj {
		sort.Ints(adj[i])
		k := 0
		for t, v := range adj[i] {
			if t == 0 || v != adj[i][k-1] {
				adj[i][k] = v
				k++
			}
		}
		adj[i] = adj[i][:k]
	}
	return adj
}

// refMDOrder is the reference mdOrder.
func refMDOrder(adj [][]int) []int {
	n := len(adj)
	// Private, mutable copy of the adjacency.
	nbrs := make([][]int, n)
	for i := range adj {
		nbrs[i] = append([]int(nil), adj[i]...)
	}
	eliminated := make([]bool, n)
	mark := make([]int, n)
	for i := range mark {
		mark[i] = -1
	}
	stamp := 0
	order := make([]int, 0, n)
	for len(order) < n {
		// Pick the minimum-degree uneliminated node (ties: lowest index,
		// keeping the ordering deterministic).
		v := -1
		for i := 0; i < n; i++ {
			if !eliminated[i] && (v < 0 || len(nbrs[i]) < len(nbrs[v])) {
				v = i
			}
		}
		order = append(order, v)
		eliminated[v] = true
		clique := nbrs[v]
		for _, u := range clique {
			if eliminated[u] {
				continue
			}
			// Compact u's list to survivors, marking them, then add the
			// clique members u is not yet adjacent to.
			stamp++
			mark[u] = stamp
			k := 0
			for _, w := range nbrs[u] {
				if !eliminated[w] {
					nbrs[u][k] = w
					mark[w] = stamp
					k++
				}
			}
			nbrs[u] = nbrs[u][:k]
			for _, w := range clique {
				if !eliminated[w] && mark[w] != stamp {
					nbrs[u] = append(nbrs[u], w)
				}
			}
		}
	}
	return order
}
