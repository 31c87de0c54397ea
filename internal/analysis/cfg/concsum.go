package cfg

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// ConcSummary is the mutex-op summary of one function body, the
// per-function input to the lockorder analyzer bundled into cmd/dmmvet.
// Ops are recorded in source order. A nested function literal is a
// boundary: its interior ops belong to the literal's own summary
// (reachable through Lits), because a closure's body does not execute
// where it is written.
type ConcSummary struct {
	// Lits are the bodies of the function literals at this level,
	// spawned or not.
	Lits []*ast.BlockStmt
	// Deferred are the bodies among Lits of `defer func(){…}()`
	// literals, whose ops run at function exit like directly deferred
	// calls.
	Deferred []*ast.BlockStmt
	// Locks are sync.Mutex/RWMutex acquire/release calls.
	Locks []LockOp
}

// LockOp is one mutex operation.
type LockOp struct {
	Pos token.Pos
	// Key names the mutex: "(pkg/path.Type).field" for fields,
	// "pkg/path.name" for package-level variables, the bare name for
	// locals.
	Key string
	// Obj is the variable identity when the mutex is a resolvable
	// variable or field; nil otherwise.
	Obj *types.Var
	// Op is "Lock", "RLock", "TryLock", "Unlock" or "RUnlock".
	Op       string
	Deferred bool
}

// Release reports whether the op drops the lock.
func (l LockOp) Release() bool { return l.Op == "Unlock" || l.Op == "RUnlock" }

// Summarize computes the mutex-op summary of one function body.
func Summarize(body *ast.BlockStmt, info *types.Info) *ConcSummary {
	w := &sumWalker{info: info, sum: &ConcSummary{}}
	w.walk(body)
	return w.sum
}

type sumWalker struct {
	info *types.Info
	sum  *ConcSummary
}

// walk records ops in n, stopping at function-literal boundaries.
func (w *sumWalker) walk(n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			// The spawned call runs elsewhere; a spawned literal is a
			// unit of its own, and the arguments evaluate here.
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				w.sum.Lits = append(w.sum.Lits, lit.Body)
			}
			for _, arg := range n.Call.Args {
				w.walk(arg)
			}
			return false
		case *ast.DeferStmt:
			w.deferCall(n)
			return false
		case *ast.FuncLit:
			w.sum.Lits = append(w.sum.Lits, n.Body)
			return false
		case *ast.CallExpr:
			w.call(n, false)
		}
		return true
	})
}

// deferCall records a deferred call's op (if it is itself a mutex op)
// and walks its arguments; a deferred literal joins Lits and Deferred.
func (w *sumWalker) deferCall(d *ast.DeferStmt) {
	if lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
		w.sum.Lits = append(w.sum.Lits, lit.Body)
		w.sum.Deferred = append(w.sum.Deferred, lit.Body)
	} else {
		w.call(d.Call, true)
	}
	for _, arg := range d.Call.Args {
		w.walk(arg)
	}
}

// call records call if it is a sync.Mutex or sync.RWMutex method call.
func (w *sumWalker) call(call *ast.CallExpr, deferred bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	fn := calleeOf(w.info, call)
	if !ok || fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return
	}
	if r := recvNamedType(fn); r != "Mutex" && r != "RWMutex" {
		return
	}
	switch fn.Name() {
	case "Lock", "RLock", "TryLock", "Unlock", "RUnlock":
		key, obj := lockKey(w.info, sel.X)
		w.sum.Locks = append(w.sum.Locks, LockOp{
			Pos: call.Pos(), Key: key, Obj: obj, Op: fn.Name(), Deferred: deferred,
		})
	}
}

// lockKey derives a stable name for the mutex a lock op targets:
//
//	x.mu     -> "(pkg/path.Type).mu"   (field)
//	pkgVar   -> "pkg/path.name"        (package-level variable)
//	local    -> "name"                 (function-local)
//
// The returned *types.Var (when non-nil) is the precise object identity
// within one package's type universe; the analyzer prefers it over the
// key when both sides resolved.
func lockKey(info *types.Info, e ast.Expr) (string, *types.Var) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		v, _ := info.Uses[e].(*types.Var)
		if v == nil {
			v, _ = info.Defs[e].(*types.Var)
		}
		if v == nil {
			return e.Name, nil
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name(), v
		}
		return v.Name(), v
	case *ast.SelectorExpr:
		v, _ := info.Uses[e.Sel].(*types.Var)
		if v != nil && v.IsField() {
			if tv, ok := info.Types[e.X]; ok && tv.Type != nil {
				t := tv.Type
				if p, isPtr := t.Underlying().(*types.Pointer); isPtr {
					t = p.Elem()
				}
				return fmt.Sprintf("(%s).%s", types.TypeString(t, nil), v.Name()), v
			}
		}
		// Fall back to the selector spelling.
		base, _ := lockKey(info, e.X)
		return base + "." + e.Sel.Name, v
	case *ast.IndexExpr:
		base, v := lockKey(info, e.X)
		return base + "[…]", v
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return lockKey(info, e.X)
		}
	case *ast.CallExpr:
		if fn := calleeOf(info, e); fn != nil {
			return fn.FullName() + "()", nil
		}
	}
	return "<expr>", nil
}

// recvNamedType returns the name of fn's receiver's named type ("" for
// plain functions), dereferencing a pointer receiver.
func recvNamedType(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// calleeOf resolves a call to a *types.Func through an identifier or
// selector; nil for dynamic calls, builtins and conversions.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}
