package la

import "sync"

// scratch is the throwaway working memory of one pattern compile
// (CompilePattern) or one symbolic analysis (NewSymbolicLU): counting
// buckets, the symmetrized adjacency, the ordering work arrays, and the
// analysis. None of it outlives the call that takes it, so it
// comes from scratchPool and goes back, and a compile allocates only the
// arrays its result keeps. Every user overwrites what it reads first:
// resize hands back old contents.
type scratch struct {
	// CompilePattern's column buckets and per-row cursors.
	colPtr, byCol, rowMark []int32

	// The symmetrized adjacency minimum degree reads, and the fill
	// cursors that build it.
	adjPtr, adjIdx, adjNext []int

	// Ordering work: degrees, a mutable copy of the adjacency lists, the
	// arena minimum degree moves growing lists to, its list headers and
	// the eliminated flags.
	deg, idxCopy, arena []int
	nbrs                [][]int
	flags               []bool

	// The analysis workspace: the inverse permutation, the DFS marks
	// (shared with minimum degree), column cursors, and DFS stack and
	// reach.
	inv, mark    []int
	next         []int32
	stack, reach []int32

	// lu is the analysis, built in place; NewSymbolicLU copies it out.
	lu SparseLU
}

// scratchPool is the process-wide free list of scratch. It keeps what it
// is given, so a process holds at most one scratch per concurrent
// compile, each sized by the largest system it has served. It is not a
// sync.Pool, which empties at garbage collection and, under the race
// detector, drops a quarter of what it is given: a compile would then
// allocate its scratch at random.
var scratchPool struct {
	mu   sync.Mutex
	free []*scratch
}

// getScratch takes a free scratch, or a new one.
func getScratch() *scratch {
	scratchPool.mu.Lock()
	defer scratchPool.mu.Unlock()
	if n := len(scratchPool.free); n > 0 {
		s := scratchPool.free[n-1]
		scratchPool.free = scratchPool.free[:n-1]
		return s
	}
	return new(scratch)
}

// putScratch returns s to the pool. It drops the matrix the analysis
// was bound to, so an idle scratch keeps no caller data alive.
func putScratch(s *scratch) {
	s.lu.a = nil
	scratchPool.mu.Lock()
	scratchPool.free = append(scratchPool.free, s)
	scratchPool.mu.Unlock()
}

// resize returns s with length n, reusing its array when it is large
// enough. The contents are whatever s held.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
