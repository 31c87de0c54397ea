// Package lockorder enforces the mutex release discipline: a
// sync.Mutex.Lock or RWMutex.RLock must be balanced on every non-failure
// path out of the function, by a release on the path or by a defer
// (including `defer func(){ mu.Unlock() }()`) whose statement the path
// runs or that was deferred before the acquire. Failure exits — paths
// ending in `return …, err` with a non-nil error, or a panic — are
// exempt, matching the cold-path pruning the hotalloc analyzer uses: a
// run that takes one is over. TryLock is conditional by construction and
// is skipped.
//
// The check is per function, so it catches the leak a test cannot: an
// early return that keeps the lock on a path no test takes (a capacity
// guard, a rare error branch) wedges the next caller only in the run
// that takes it. Function literals, spawned or not, are checked as
// functions of their own.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"

	"repro/internal/analysis"
	"repro/internal/analysis/cfg"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "every Lock/RLock must be released on every non-failure path out of its function; " +
		"a deferred release covers the paths that reach its defer statement",
	Run: run,
}

func run(pass *analysis.Pass) error {
	// walk checks one body, then the function literals inside it, each
	// as a function of its own (sig is nil for literals: only panics
	// classify as their failure exits).
	var walk func(name string, body *ast.BlockStmt, sig *types.Signature)
	walk = func(name string, body *ast.BlockStmt, sig *types.Signature) {
		sum := cfg.Summarize(body, pass.TypesInfo)
		ops := sum.Locks
		for _, lit := range sum.Deferred {
			ops = append(ops, releasesIn(pass.TypesInfo, lit)...)
		}
		checkReleases(pass, name, body, sig, ops)
		for _, lit := range sum.Lits {
			walk(name+"·lit", lit, nil)
		}
	}
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Name == nil {
				continue
			}
			var sig *types.Signature
			if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				sig, _ = obj.Type().(*types.Signature)
			}
			walk(fd.Name.Name, fd.Body, sig)
		}
	}
	return nil
}

// releasesIn lists the release ops at the top level of a deferred
// literal's body (nested literals inside it run only if called), marked
// Deferred: they run at exit like directly deferred unlocks.
func releasesIn(info *types.Info, body *ast.BlockStmt) []cfg.LockOp {
	var out []cfg.LockOp
	for _, op := range cfg.Summarize(body, info).Locks {
		if op.Release() {
			op.Deferred = true
			out = append(out, op)
		}
	}
	return out
}

// sameLock matches two ops in the same body by object identity when
// both resolved, else by key.
func sameLock(a, b cfg.LockOp) bool {
	if a.Obj != nil && b.Obj != nil {
		return a.Obj == b.Obj
	}
	return a.Key == b.Key
}

// isAcquire reports whether op takes a lock the function must release:
// a non-deferred Lock or RLock (TryLock is conditional by construction).
func isAcquire(op cfg.LockOp) bool {
	return !op.Deferred && (op.Op == "Lock" || op.Op == "RLock")
}

// releaseKind is the balancing release for an acquire.
func releaseKind(acquireOp string) string {
	if acquireOp == "RLock" {
		return "RUnlock"
	}
	return "Unlock"
}

// locate maps each lock op to the smallest CFG node containing it,
// returning (block index, node index) per op index; ops the CFG does
// not cover (pruned constant branches) are absent.
func locate(g *cfg.Graph, ops []cfg.LockOp) map[int][2]int {
	loc := make(map[int][2]int)
	size := make(map[int]token.Pos) // op index -> best node span
	for bi, blk := range g.Blocks {
		for ni, n := range blk.Nodes {
			for oi, op := range ops {
				if n.Pos() <= op.Pos && op.Pos < n.End() {
					span := n.End() - n.Pos()
					if best, ok := size[oi]; !ok || span < best {
						size[oi] = span
						loc[oi] = [2]int{bi, ni}
					}
				}
			}
		}
	}
	return loc
}

// checkReleases enforces the release discipline on one body, given its
// lock ops, deferred-literal releases included. A release balances the
// paths that reach it; a deferred one counts where its defer statement
// runs, so an early return before the defer still leaks. A release
// deferred before the acquire covers it outright.
func checkReleases(pass *analysis.Pass, name string, body *ast.BlockStmt, sig *types.Signature, ops []cfg.LockOp) {
	if !slices.ContainsFunc(ops, isAcquire) {
		return
	}
	g := cfg.New(name, body, pass.TypesInfo)
	cold := g.ColdBlocks(pass.TypesInfo, sig)
	loc := locate(g, ops)

	// releaseAt[block][node] lists indices of release ops located there;
	// a deferred release sits at its defer statement.
	releaseAt := make(map[[2]int][]int)
	for oi, op := range ops {
		if op.Release() {
			if l, ok := loc[oi]; ok {
				releaseAt[l] = append(releaseAt[l], oi)
			}
		}
	}

	for ai, op := range ops {
		if !isAcquire(op) {
			continue
		}
		want := releaseKind(op.Op)
		matches := func(r cfg.LockOp) bool { return r.Op == want && sameLock(r, op) }
		if slices.ContainsFunc(ops, func(r cfg.LockOp) bool { return r.Deferred && r.Pos < op.Pos && matches(r) }) {
			continue
		}
		start, ok := loc[ai]
		if !ok {
			continue // acquire in a pruned branch
		}
		releasedHere := func(bi, ni int) bool {
			for _, ri := range releaseAt[[2]int{bi, ni}] {
				if matches(ops[ri]) {
					return true
				}
			}
			return false
		}
		visited := make(map[int]bool)
		leaks := false
		var dfs func(bi, ni int)
		dfs = func(bi, ni int) {
			if leaks {
				return
			}
			blk := g.Blocks[bi]
			for i := ni; i < len(blk.Nodes); i++ {
				if releasedHere(bi, i) {
					return // this path balances the acquire
				}
			}
			if len(blk.Succs) == 0 {
				if !cold[blk] {
					leaks = true
				}
				return
			}
			for _, s := range blk.Succs {
				if !visited[s.Index] {
					visited[s.Index] = true
					dfs(s.Index, 0)
				}
			}
		}
		dfs(start[0], start[1]+1)
		if leaks {
			pass.Reportf(op.Pos,
				"%s acquired with %s is not released on every non-failure path; release before each return or defer the %s",
				op.Key, op.Op, want)
		}
	}
}
