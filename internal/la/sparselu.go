package la

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/obs"
)

// SparseLU is a direct solver for sparse square systems whose sparsity
// pattern is fixed across many numeric refactorizations — exactly the shape
// of the SOLC voltage solve, where the circuit topology (and therefore the
// pattern of C/h·I + A) never changes while the memristor conductances do.
//
// NewSparseLU performs the one-time symbolic phase: a fill-reducing
// ordering (the better of reverse Cuthill-McKee and greedy minimum degree
// on the symmetrized pattern) followed by a Gilbert-Peierls symbolic
// elimination that fixes the nonzero structure of L and U once. Refactor
// then recomputes only the numeric values into the frozen structure (no
// allocation, no pattern work), and SolveInto runs the permuted triangular
// solves.
//
// The factorization is pivot-free: row/column order is decided by the
// symbolic phase alone. That is only stable for matrices kept strongly
// diagonally dominant by construction — here the C/h (or g_leak) diagonal
// shift added on top of nonnegative branch conductances; see DESIGN.md
// "Sparse voltage solve".
type SparseLU struct {
	n int
	a *CSR // bound matrix: values may change, pattern must not

	perm []int // perm[new] = old index (symmetric permutation)

	// Scatter plan: permuted column j reads a.Val[aSrc[t]] into permuted
	// row aRow[t], for t in [aColPtr[j], aColPtr[j+1]).
	aColPtr []int32
	aRow    []int32
	aSrc    []int32

	// L is unit lower triangular, strictly-lower part stored column-wise.
	lp []int32
	li []int32
	lx []float64

	// U is upper triangular stored column-wise with ascending row indices;
	// the diagonal entry is the last of each column.
	up []int32
	ui []int32
	ux []float64

	x []float64 // dense scatter workspace (zero between calls)
	b []float64 // permuted right-hand-side workspace

	// Spans, when set, self-times Refactor (classify/refactor phase) and
	// SolveInto (solve phase); instrumented callers lap around these
	// calls so no interval is charged twice. Clones inherit it via the
	// CloneFor struct copy, so only set it on a solver that is private
	// to one stepping goroutine — never on the shared symbolic template.
	Spans *obs.Spans
}

// NNZFactors returns the stored nonzero count of L and U together
// (observability: fill-in = NNZFactors - NNZ(A)).
func (f *SparseLU) NNZFactors() int { return len(f.lx) + len(f.ux) }

// NewSparseLU computes the fill-reducing ordering and symbolic
// factorization of a and binds the solver to it. The matrix must be square
// with a structurally present diagonal (the circuit assembly guarantees
// this via the C/h·I shift). Subsequent Refactor calls read a.Val in place,
// so the caller may rewrite values — but not the pattern — between
// refactorizations.
func NewSparseLU(a *CSR) (*SparseLU, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("la: SparseLU requires a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	// Symbolically factor under both candidate orderings and keep the one
	// with less fill: RCM wins on banded chains, minimum degree on the
	// grid-like multiplier arrays. The analysis is a one-time Build cost;
	// every numeric refactorization repays the smaller structure.
	adj := symmetrizedAdjacency(a)
	best, err := analyze(a, rcmOrder(a, adj))
	if err != nil {
		return nil, err
	}
	if md, errMD := analyze(a, mdOrder(adj)); errMD == nil && md.NNZFactors() < best.NNZFactors() {
		best = md
	}
	return best, nil
}

// analyze builds the scatter plan and symbolic factorization of a under
// the given ordering (perm[new] = old).
func analyze(a *CSR, perm []int) (*SparseLU, error) {
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

// CloneFor returns a solver bound to a, sharing the receiver's symbolic
// analysis (ordering, scatter plan, and factor structure — all immutable
// after NewSparseLU) with private numeric arrays. a must have exactly the
// pattern the symbolic phase was computed for; engine clones use this so a
// circuit's one-time symbolic factorization serves every concurrent
// attempt.
func (f *SparseLU) CloneFor(a *CSR) (*SparseLU, error) {
	if a.Rows != f.a.Rows || a.Cols != f.a.Cols || len(a.Val) != len(f.a.Val) {
		return nil, fmt.Errorf("la: SparseLU.CloneFor pattern mismatch (%dx%d/%d vs %dx%d/%d)",
			a.Rows, a.Cols, len(a.Val), f.a.Rows, f.a.Cols, len(f.a.Val))
	}
	cp := *f
	cp.a = a
	cp.lx = make([]float64, len(f.li))
	cp.ux = make([]float64, len(f.ui))
	cp.x = make([]float64, f.n)
	cp.b = make([]float64, f.n)
	return &cp, nil
}

// Refactor recomputes the numeric factorization from the bound matrix's
// current values, reusing the symbolic structure. It allocates nothing.
//
//dmmvet:hotpath
func (f *SparseLU) Refactor() error {
	tok := f.Spans.Begin()
	x, aVal := f.x, f.a.Val
	aRow, aSrc := f.aRow, f.aSrc
	liAll, lxAll := f.li, f.lx
	uiAll, uxAll := f.ui, f.ux
	for j := 0; j < f.n; j++ {
		for t := f.aColPtr[j]; t < f.aColPtr[j+1]; t++ {
			x[aRow[t]] = aVal[aSrc[t]]
		}
		// Eliminate with every upper-pattern column k < j (ascending order
		// finalizes x[k] before any larger row consumes it), storing U as
		// we go and clearing the workspace behind us.
		uEnd := f.up[j+1] - 1 // last entry is the diagonal
		for t := f.up[j]; t < uEnd; t++ {
			k := uiAll[t]
			xk := x[k]
			x[k] = 0
			uxAll[t] = xk
			if xk == 0 {
				continue
			}
			li := liAll[f.lp[k]:f.lp[k+1]]
			lx := lxAll[f.lp[k]:f.lp[k+1]]
			lx = lx[:len(li)]
			for s, r := range li {
				// float64(…) pins the multiply-subtract to two roundings:
				// the Go spec lets x[r] - lx[s]*xk fuse into an FMA on
				// arm64, and factor bits must not depend on GOARCH.
				x[r] -= float64(lx[s] * xk)
			}
		}
		d := x[j]
		x[j] = 0
		uxAll[uEnd] = d
		if d == 0 || math.IsNaN(d) {
			return fmt.Errorf("la: sparse LU singular at column %d", f.perm[j])
		}
		invD := 1 / d
		li := liAll[f.lp[j]:f.lp[j+1]]
		lx := lxAll[f.lp[j]:f.lp[j+1]]
		lx = lx[:len(li)]
		for s, r := range li {
			lx[s] = x[r] * invD
			x[r] = 0
		}
	}
	f.Spans.End(obs.PhaseFactor, tok)
	return nil
}

// SolveInto solves A·x = b into dst using the current factorization. dst
// may alias b. It allocates nothing.
//
//dmmvet:hotpath
func (f *SparseLU) SolveInto(dst, b Vector) {
	if len(b) != f.n || len(dst) != f.n {
		panic("la: SparseLU.SolveInto length mismatch")
	}
	tok := f.Spans.Begin()
	y := f.b
	for k := 0; k < f.n; k++ {
		y[k] = b[f.perm[k]]
	}
	// Forward solve L·z = P·b (unit diagonal, column-oriented).
	for j := 0; j < f.n; j++ {
		yj := y[j]
		if yj == 0 {
			continue
		}
		li := f.li[f.lp[j]:f.lp[j+1]]
		lx := f.lx[f.lp[j]:f.lp[j+1]]
		lx = lx[:len(li)]
		for s, r := range li {
			y[r] -= float64(lx[s] * yj) // rounding barrier: no FMA fusion
		}
	}
	// Back solve U·w = z (diagonal last in each column).
	for j := f.n - 1; j >= 0; j-- {
		uEnd := f.up[j+1] - 1
		yj := y[j] / f.ux[uEnd]
		y[j] = yj
		if yj == 0 {
			continue
		}
		ui := f.ui[f.up[j]:uEnd]
		ux := f.ux[f.up[j]:uEnd]
		ux = ux[:len(ui)]
		for t, r := range ui {
			y[r] -= float64(ux[t] * yj) // rounding barrier: no FMA fusion
		}
	}
	for k := 0; k < f.n; k++ {
		dst[f.perm[k]] = y[k]
	}
	f.Spans.End(obs.PhaseSolve, tok)
}

// symmetrizedAdjacency returns the sorted, deduplicated undirected
// adjacency (no self loops) of a's pattern — the graph both orderings
// work on.
func symmetrizedAdjacency(a *CSR) [][]int {
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

// rcmOrder computes a reverse Cuthill-McKee ordering of the symmetrized
// pattern, returning perm with perm[new] = old. RCM clusters each node's
// neighbours — for SOLC matrices, the gate terminals sharing a branch —
// into a narrow band; it is the stronger choice for chain-like circuits.
func rcmOrder(a *CSR, adj [][]int) []int {
	n := a.Rows
	deg := make([]int, n)
	for i := range adj {
		deg[i] = len(adj[i])
	}

	visited := make([]bool, n)
	order := make([]int, 0, n)
	queue := make([]int, 0, n)
	bfs := func(root int, record bool) (last []int) {
		queue = append(queue[:0], root)
		visited[root] = true
		if record {
			order = append(order, root)
		}
		levelStart := 0
		for levelStart < len(queue) {
			levelEnd := len(queue)
			for q := levelStart; q < levelEnd; q++ {
				v := queue[q]
				nbrs := append([]int(nil), adj[v]...)
				sort.Slice(nbrs, func(x, y int) bool {
					if deg[nbrs[x]] != deg[nbrs[y]] {
						return deg[nbrs[x]] < deg[nbrs[y]]
					}
					return nbrs[x] < nbrs[y]
				})
				for _, w := range nbrs {
					if !visited[w] {
						visited[w] = true
						queue = append(queue, w)
						if record {
							order = append(order, w)
						}
					}
				}
			}
			last = queue[levelEnd:len(queue):len(queue)]
			if len(last) == 0 {
				last = queue[levelStart:levelEnd]
			}
			levelStart = levelEnd
		}
		return last
	}
	unvisit := func(nodes []int) {
		for _, v := range nodes {
			visited[v] = false
		}
	}

	for start := 0; start < n; start++ {
		if visited[start] {
			continue
		}
		// Pseudo-peripheral root: one BFS hop to the farthest level's
		// minimum-degree node.
		last := bfs(start, false)
		component := append([]int(nil), queue...)
		unvisit(component)
		best := last[0]
		for _, v := range last {
			if deg[v] < deg[best] {
				best = v
			}
		}
		bfs(best, true)
	}
	// Reverse the Cuthill-McKee order.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// mdOrder computes a greedy minimum-degree ordering of the symmetrized
// pattern via explicit elimination-graph updates: repeatedly eliminate a
// minimum-degree node and join its neighbours into a clique. Quadratic in
// the worst case but run once per topology at Build time; on the grid-like
// multiplier/adder arrays it beats RCM's fill by integer factors.
func mdOrder(adj [][]int) []int {
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
