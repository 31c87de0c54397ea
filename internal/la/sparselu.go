package la

import (
	"errors"
	"fmt"
	"math"
	"slices"

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
// diagonally dominant by construction — here the C/h diagonal shift
// added on top of nonnegative branch conductances; see DESIGN.md
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
func (f *SparseLU) NNZFactors() int { return len(f.li) + len(f.ui) }

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
	// with less fill, RCM on a tie: RCM wins on banded chains, minimum
	// degree on the grid-like multiplier arrays. The analysis is a
	// one-time Build cost; every numeric refactorization repays the
	// smaller structure. Both analyses share one workspace, and only the
	// winner gets numeric arrays.
	//
	// Minimum degree goes first so that its fill can cap the RCM analysis:
	// once RCM's running fill exceeds it, RCM has lost. The cap applies
	// only under a full diagonal, where no column can be structurally
	// singular; otherwise RCM runs to the end, because its error (not
	// minimum degree's) is the one to report.
	adj := symmetrizedAdjacency(a)
	ws := newSymbolicWork(a.Rows)
	md, errMD := analyze(a, mdOrder(adj), ws, -1)
	budget := -1
	if errMD == nil && hasFullDiagonal(a) {
		budget = md.NNZFactors()
	}
	best, err := analyze(a, rcmOrder(adj), ws, budget)
	switch {
	case errors.Is(err, errOverBudget):
		best = md
	case err != nil:
		return nil, err
	case errMD == nil && md.NNZFactors() < best.NNZFactors():
		best = md
	}
	best.lx = make([]float64, len(best.li))
	best.ux = make([]float64, len(best.ui))
	best.x = make([]float64, a.Rows)
	best.b = make([]float64, a.Rows)
	return best, nil
}

// symbolicWork is the scratch one symbolic analysis needs, reused by the
// next: the inverse permutation, the DFS marks, stack and reach, column
// cursors, and the growing L and U patterns, which analyze copies out at
// their final length.
type symbolicWork struct {
	inv          []int
	mark         []int
	next         []int32
	stack, reach []int32
	li, ui       []int32
}

func newSymbolicWork(n int) *symbolicWork {
	return &symbolicWork{
		inv:   make([]int, n),
		mark:  make([]int, n),
		next:  make([]int32, n),
		stack: make([]int32, 0, n),
		reach: make([]int32, 0, n),
	}
}

// errOverBudget reports an analysis abandoned because its fill exceeded
// the caller's budget.
var errOverBudget = errors.New("la: symbolic fill over budget")

// hasFullDiagonal reports whether every diagonal entry of a is stored.
func hasFullDiagonal(a *CSR) bool {
	for i := 0; i < a.Rows; i++ {
		if !slices.Contains(a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]], i) {
			return false
		}
	}
	return true
}

// analyze builds the scatter plan and symbolic factorization of a under
// the given ordering (perm[new] = old). It sets every symbolic array but
// leaves the numeric ones (lx, ux, x, b) to the caller. With budget ≥ 0
// it returns errOverBudget as soon as the fill of L+U exceeds budget.
func analyze(a *CSR, perm []int, ws *symbolicWork, budget int) (*SparseLU, error) {
	n := a.Rows
	f := &SparseLU{n: n, a: a, perm: perm}
	inv := ws.inv
	for k, old := range perm {
		inv[old] = k
	}

	// Permuted column structure of A with back-pointers into a.Val: a
	// counting-sort transpose that visits the rows in permuted order, so
	// every column's entries arrive sorted by permuted row.
	nnz := a.RowPtr[n]
	f.aColPtr = make([]int32, n+1)
	for _, c := range a.ColIdx[:nnz] {
		f.aColPtr[inv[c]+1]++
	}
	for j := 0; j < n; j++ {
		f.aColPtr[j+1] += f.aColPtr[j]
	}
	next := ws.next
	copy(next, f.aColPtr[:n])
	f.aRow = make([]int32, nnz)
	f.aSrc = make([]int32, nnz)
	for pi, i := range perm {
		for t := a.RowPtr[i]; t < a.RowPtr[i+1]; t++ {
			pj := inv[a.ColIdx[t]]
			f.aRow[next[pj]] = int32(pi)
			f.aSrc[next[pj]] = int32(t)
			next[pj]++
		}
	}

	// Symbolic Gilbert-Peierls elimination: the pattern of column j of
	// L+U is the reach of A(:,j)'s pattern through the DAG of already
	// computed L columns (edge k→i when L[i,k] ≠ 0). Ascending index order
	// is a valid topological order for the lower-triangular dependency, so
	// the numeric phase can simply walk each stored pattern in order.
	f.lp = make([]int32, n+1)
	f.up = make([]int32, n+1)
	li, ui := ws.li[:0], ws.ui[:0]
	mark := ws.mark
	for i := range mark {
		mark[i] = -1
	}
	stack, reach := ws.stack, ws.reach
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
				reach = append(reach, v)
				if int(v) < j {
					for _, w := range li[f.lp[v]:f.lp[v+1]] {
						if mark[w] != j {
							stack = append(stack, w)
						}
					}
				}
			}
		}
		slices.Sort(reach)
		// reach is sorted: rows above j go to U, then the diagonal, then
		// the rows below j to L.
		k := 0
		for k < len(reach) && int(reach[k]) < j {
			k++
		}
		if k == len(reach) || int(reach[k]) != j {
			return nil, fmt.Errorf("la: SparseLU structurally singular (no diagonal reach at column %d)", perm[j])
		}
		ui = append(append(ui, reach[:k]...), int32(j)) // diagonal closes the column
		f.up[j+1] = int32(len(ui))
		li = append(li, reach[k+1:]...)
		f.lp[j+1] = int32(len(li))
		if budget >= 0 && len(li)+len(ui) > budget {
			return nil, errOverBudget
		}
	}
	ws.li, ws.ui, ws.stack, ws.reach = li, ui, stack, reach
	f.li = slices.Clone(li)
	f.ui = slices.Clone(ui)
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

// adjacency is an undirected graph in compressed form: node i's
// neighbours are idx[ptr[i]:ptr[i+1]], ascending.
type adjacency struct {
	ptr, idx []int
}

func (g adjacency) nbrs(i int) []int { return g.idx[g.ptr[i]:g.ptr[i+1]] }

// symmetrizedAdjacency returns the sorted, deduplicated undirected
// adjacency (no self loops) of a's pattern — the graph both orderings
// work on.
func symmetrizedAdjacency(a *CSR) adjacency {
	n := a.Rows
	g := adjacency{ptr: make([]int, n+1)}
	for i := 0; i < n; i++ {
		for _, j := range a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]] {
			if i != j {
				g.ptr[i+1]++
				g.ptr[j+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		g.ptr[i+1] += g.ptr[i]
	}
	g.idx = make([]int, g.ptr[n])
	next := slices.Clone(g.ptr[:n])
	for i := 0; i < n; i++ {
		for _, j := range a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]] {
			if i != j {
				g.idx[next[i]] = j
				next[i]++
				g.idx[next[j]] = i
				next[j]++
			}
		}
	}
	// Sort each list and drop its duplicates, compacting in place.
	k := 0
	for i := 0; i < n; i++ {
		list := g.idx[g.ptr[i]:g.ptr[i+1]]
		slices.Sort(list)
		g.ptr[i] = k
		for t, v := range list {
			if t == 0 || v != g.idx[k-1] {
				g.idx[k] = v
				k++
			}
		}
	}
	g.ptr[n] = k
	g.idx = g.idx[:k]
	return g
}

// rcmOrder computes a reverse Cuthill-McKee ordering of the symmetrized
// pattern, returning perm with perm[new] = old. RCM clusters each node's
// neighbours — for SOLC matrices, the gate terminals sharing a branch —
// into a narrow band; it is the stronger choice for chain-like circuits.
func rcmOrder(adj adjacency) []int {
	n := len(adj.ptr) - 1
	deg := make([]int, n)
	for i := range deg {
		deg[i] = len(adj.nbrs(i))
	}
	// The BFS visits each node's neighbours by ascending (degree, index),
	// a total order: sort every list once, up front.
	byDeg := adjacency{ptr: adj.ptr, idx: slices.Clone(adj.idx)}
	for i := 0; i < n; i++ {
		slices.SortFunc(byDeg.nbrs(i), func(x, y int) int {
			if deg[x] != deg[y] {
				return deg[x] - deg[y]
			}
			return x - y
		})
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
				for _, w := range byDeg.nbrs(queue[q]) {
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

	for start := 0; start < n; start++ {
		if visited[start] {
			continue
		}
		// Pseudo-peripheral root: one BFS hop to the farthest level's
		// minimum-degree node.
		last := bfs(start, false)
		best := last[0]
		for _, v := range last {
			if deg[v] < deg[best] {
				best = v
			}
		}
		for _, v := range queue { // the component: unvisit it for the second BFS
			visited[v] = false
		}
		bfs(best, true)
	}
	// Reverse the Cuthill-McKee order.
	slices.Reverse(order)
	return order
}

// mdOrder computes a greedy minimum-degree ordering of the symmetrized
// pattern via explicit elimination-graph updates: repeatedly eliminate a
// minimum-degree node and join its neighbours into a clique. Quadratic in
// the worst case but run once per topology at Build time; on the grid-like
// multiplier/adder arrays it beats RCM's fill by integer factors.
func mdOrder(adj adjacency) []int {
	n := len(adj.ptr) - 1
	// Private, mutable copy of the adjacency. Each list is capped at its
	// own length, so a list that grows past it moves to its own array.
	flat := slices.Clone(adj.idx)
	nbrs := make([][]int, n)
	for i := range nbrs {
		nbrs[i] = flat[adj.ptr[i]:adj.ptr[i+1]:adj.ptr[i+1]]
	}
	// deg mirrors len(nbrs[i]) for every uneliminated node and is
	// MaxInt for an eliminated one, so the selection scan is one tight
	// pass over a flat array.
	deg := make([]int, n)
	for i := range deg {
		deg[i] = len(nbrs[i])
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
		v := 0
		for i, d := range deg {
			if d < deg[v] {
				v = i
			}
		}
		order = append(order, v)
		eliminated[v] = true
		deg[v] = math.MaxInt
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
			deg[u] = len(nbrs[u])
		}
	}
	return order
}
