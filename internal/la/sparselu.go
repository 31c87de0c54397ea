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
// ordering (greedy minimum degree on the symmetrized pattern) followed
// by a Gilbert-Peierls symbolic elimination that fixes the nonzero
// structure of L and U once. Refactor then recomputes only the numeric
// values into the frozen structure (no allocation, no pattern work), and
// SolveInto runs the permuted triangular solves. NewSymbolicLU runs the symbolic phase alone: its template owns
// no numeric arrays (lx, ux, x and b are nil), and each of its CloneFor
// solvers owns its own.
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
// factorization of a and binds the solver to it, with numeric arrays of
// its own. The matrix must be square with every diagonal entry stored
// (the circuit assembly guarantees this via the C/h·I shift); otherwise
// it returns an error.
// Subsequent Refactor calls read a.Val in place, so the caller may
// rewrite values — but not the pattern — between refactorizations.
func NewSparseLU(a *CSR) (*SparseLU, error) {
	f, err := NewSymbolicLU(a)
	if err != nil {
		return nil, err
	}
	f.allocNumeric()
	return f, nil
}

// NewSymbolicLU is the symbolic phase of NewSparseLU alone: it returns a
// template that holds the ordering, scatter plan and factor structure of
// a but owns no numeric arrays, so Refactor and SolveInto must not be
// called on it. Each CloneFor of the template is a solver that owns its
// numeric arrays; one template serves any number of concurrent clones.
func NewSymbolicLU(a *CSR) (*SparseLU, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("la: SparseLU requires a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if !hasFullDiagonal(a) {
		return nil, errNoDiagonal
	}
	// Order by minimum degree and analyse once, in pooled scratch; only
	// the result is copied out. The analysis is a one-time Build cost;
	// every numeric refactorization repays the smaller structure.
	s := getScratch()
	defer putScratch(s)
	f := &s.lu
	f.perm = s.mdOrder(s.adjacency(a), f.perm)
	s.analyze(a, f)
	return f.copySymbolic(), nil
}

// copySymbolic returns a template with its own copy of f's symbolic
// arrays; the int32 ones share one allocation.
func (f *SparseLU) copySymbolic() *SparseLU {
	n := f.n
	ints := make([]int32, 0, 3*(n+1)+2*len(f.aRow)+len(f.li)+len(f.ui))
	take := func(src []int32) []int32 {
		k := len(ints)
		ints = append(ints, src...)
		return ints[k:len(ints):len(ints)]
	}
	return &SparseLU{
		n: n, a: f.a, perm: slices.Clone(f.perm),
		aColPtr: take(f.aColPtr), aRow: take(f.aRow), aSrc: take(f.aSrc),
		lp: take(f.lp), li: take(f.li),
		up: take(f.up), ui: take(f.ui),
	}
}

// allocNumeric gives f numeric arrays of its own.
func (f *SparseLU) allocNumeric() {
	f.lx = make([]float64, len(f.li))
	f.ux = make([]float64, len(f.ui))
	f.x = make([]float64, f.n)
	f.b = make([]float64, f.n)
}

// errNoDiagonal reports a pattern that breaks the full-diagonal
// precondition of the pivot-free factorization.
var errNoDiagonal = errors.New("la: SparseLU requires every diagonal entry to be stored")

// hasFullDiagonal reports whether every diagonal entry of a is stored.
func hasFullDiagonal(a *CSR) bool {
	for i := 0; i < a.Rows; i++ {
		if !slices.Contains(a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]], i) {
			return false
		}
	}
	return true
}

// analyze builds into f the scatter plan and symbolic factorization of a
// under the ordering f.perm (perm[new] = old), reusing f's arrays. It
// sets every symbolic array and no numeric one. a must have a full
// diagonal: a symmetric permutation keeps it on the diagonal, so every
// column reaches its own row.
func (s *scratch) analyze(a *CSR, f *SparseLU) {
	n := a.Rows
	f.n, f.a = n, a
	inv := resize(s.inv, n)
	for k, old := range f.perm {
		inv[old] = k
	}

	// Permuted column structure of A with back-pointers into a.Val: a
	// counting-sort transpose that visits the rows in permuted order, so
	// every column's entries arrive sorted by permuted row.
	nnz := a.RowPtr[n]
	f.aColPtr = resize(f.aColPtr, n+1)
	clear(f.aColPtr)
	for _, c := range a.ColIdx[:nnz] {
		f.aColPtr[inv[c]+1]++
	}
	for j := 0; j < n; j++ {
		f.aColPtr[j+1] += f.aColPtr[j]
	}
	next := resize(s.next, n)
	copy(next, f.aColPtr[:n])
	f.aRow = resize(f.aRow, nnz)
	f.aSrc = resize(f.aSrc, nnz)
	for pi, i := range f.perm {
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
	f.lp = resize(f.lp, n+1)
	f.up = resize(f.up, n+1)
	f.lp[0], f.up[0] = 0, 0
	li, ui := f.li[:0], f.ui[:0]
	mark := resize(s.mark, n)
	for i := range mark {
		mark[i] = -1
	}
	stack, reach := s.stack, s.reach
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
		k, _ := slices.BinarySearch(reach, int32(j))
		ui = append(append(ui, reach[:k]...), int32(j)) // diagonal closes the column
		f.up[j+1] = int32(len(ui))
		li = append(li, reach[k+1:]...)
		f.lp[j+1] = int32(len(li))
	}
	f.li, f.ui = li, ui
	s.inv, s.next, s.mark, s.stack, s.reach = inv, next, mark, stack, reach
}

// CloneFor returns a solver bound to a, sharing the receiver's symbolic
// analysis (ordering, scatter plan, and factor structure — all immutable
// after the symbolic phase) and owning numeric arrays of its own: the
// clone, never the receiver, is what Refactor writes. The receiver may be
// a NewSymbolicLU template, which has no numeric arrays, or a NewSparseLU
// solver, whose numerics the clone does not touch. a must have exactly
// the pattern the symbolic phase was computed for; engine clones use
// this so a circuit's one-time symbolic factorization serves every
// concurrent attempt.
func (f *SparseLU) CloneFor(a *CSR) (*SparseLU, error) {
	if a.Rows != f.a.Rows || a.Cols != f.a.Cols || len(a.Val) != len(f.a.Val) {
		return nil, fmt.Errorf("la: SparseLU.CloneFor pattern mismatch (%dx%d/%d vs %dx%d/%d)",
			a.Rows, a.Cols, len(a.Val), f.a.Rows, f.a.Cols, len(f.a.Val))
	}
	cp := *f
	cp.a = a
	cp.allocNumeric()
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

// adjacency returns the sorted, deduplicated undirected adjacency (no
// self loops) of a's pattern — the graph minimum degree works on — in
// the scratch's arrays.
func (s *scratch) adjacency(a *CSR) adjacency {
	n := a.Rows
	g := adjacency{ptr: resize(s.adjPtr, n+1)}
	clear(g.ptr)
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
	g.idx = resize(s.adjIdx, g.ptr[n])
	next := resize(s.adjNext, n)
	copy(next, g.ptr[:n])
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
	s.adjPtr, s.adjIdx, s.adjNext = g.ptr, g.idx, next
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

// mdOrder appends to order[:0] a greedy minimum-degree ordering of the
// symmetrized pattern (order[new] = old) and returns it, by explicit
// elimination-graph updates: repeatedly eliminate a minimum-degree node
// and join its neighbours into a clique. Quadratic in the worst case but
// run once per topology at Build time.
func (s *scratch) mdOrder(adj adjacency, order []int) []int {
	n := len(adj.ptr) - 1
	// Private, mutable copy of the adjacency. Each list is capped at its
	// own length, so a list that would grow past it first moves to the
	// arena, with room to double.
	flat := resize(s.idxCopy, len(adj.idx))
	arena := s.arena[:0]
	copy(flat, adj.idx)
	nbrs := resize(s.nbrs, n)
	for i := range nbrs {
		nbrs[i] = flat[adj.ptr[i]:adj.ptr[i+1]:adj.ptr[i+1]]
	}
	// deg mirrors len(nbrs[i]) for every uneliminated node and is
	// MaxInt for an eliminated one, so the selection scan is one tight
	// pass over a flat array.
	deg := resize(s.deg, n)
	for i := range deg {
		deg[i] = len(nbrs[i])
	}
	eliminated := resize(s.flags, n)
	clear(eliminated)
	mark := resize(s.mark, n)
	for i := range mark {
		mark[i] = -1
	}
	stamp := 0
	order = order[:0]
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
			if need := k + len(clique); cap(nbrs[u]) < need {
				if cap(arena)-len(arena) < 2*need {
					// Lists already moved keep the old arena alive.
					arena = make([]int, 0, max(2*cap(arena), 2*need))
				}
				at := len(arena)
				arena = append(arena, nbrs[u]...)
				nbrs[u] = arena[at : at+k : at+2*need]
				arena = arena[:at+2*need]
			}
			for _, w := range clique {
				if !eliminated[w] && mark[w] != stamp {
					nbrs[u] = append(nbrs[u], w)
				}
			}
			deg[u] = len(nbrs[u])
		}
	}
	// Drop the list headers, which may point into a replaced arena.
	clear(nbrs)
	s.idxCopy, s.nbrs, s.deg, s.flags, s.mark, s.arena = flat, nbrs, deg, eliminated, mark, arena
	return order
}
