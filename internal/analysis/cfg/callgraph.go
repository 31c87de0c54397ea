package cfg

import (
	"go/ast"
	"go/types"
	"sort"

	"repro/internal/analysis"
)

// CallGraph is the interprocedural companion to the per-function Graph: a
// FullName-keyed index of every function declaration in the loaded
// packages with its static call edges. It is the promoted form of the
// call index the hotalloc analyzer grew privately — keys are
// types.Func.FullName, not object identity, because each package is
// type-checked in its own universe, so the *types.Func a caller sees
// through an import differs from the one at the callee's definition
// while the full name is stable across both.
//
// Edges are attributed to the enclosing declaration, including call
// sites inside nested function literals and go statements: an edge f→g
// means "g's body can run because f ran", the reachability hotalloc and
// fparith sweep from their //dmmvet:hotpath roots. Dynamic call sites —
// calls through function values and interface method calls — have no
// static callee and add no edge.
type CallGraph struct {
	nodes map[string]*CallNode
	names []string // sorted keys, for deterministic iteration
}

// CallNode is one function declaration in the graph.
type CallNode struct {
	Fn   *types.Func
	Pkg  *analysis.Package
	Decl *ast.FuncDecl

	// callees are the full names of the static callees, deduped and
	// sorted. Callees outside the loaded packages (the standard library)
	// are included; they have no node.
	callees []string
}

// BuildCallGraph indexes every function declaration in pkgs and resolves
// its static call edges. Run it over the whole module: with a partial
// package set, in-module callees look external.
func BuildCallGraph(pkgs []*analysis.Package) *CallGraph {
	cg := &CallGraph{nodes: make(map[string]*CallNode)}
	for _, pkg := range pkgs {
		for _, file := range pkg.Syntax {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name == nil {
					continue
				}
				obj, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				cg.nodes[obj.FullName()] = &CallNode{Fn: obj, Pkg: pkg, Decl: fd}
			}
		}
	}
	for _, node := range cg.nodes {
		if node.Decl.Body != nil {
			collectEdges(node)
		}
	}
	for name := range cg.nodes {
		cg.names = append(cg.names, name)
	}
	sort.Strings(cg.names)
	return cg
}

// collectEdges resolves every call site in node's body (including inside
// nested function literals) to a static callee where possible.
func collectEdges(node *CallNode) {
	info := node.Pkg.TypesInfo
	seen := make(map[string]bool)
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeOf(info, call)
		if fn == nil {
			return true // builtin, conversion, literal or call through a value
		}
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil && types.IsInterface(sig.Recv().Type().Underlying()) {
			return true // interface dispatch
		}
		if name := fn.FullName(); !seen[name] {
			seen[name] = true
			node.callees = append(node.callees, name)
		}
		return true
	})
	sort.Strings(node.callees)
}

// Node returns the declaration node for a full name, or nil.
func (cg *CallGraph) Node(fullName string) *CallNode { return cg.nodes[fullName] }

// Names returns every declared function's full name in sorted order —
// the deterministic iteration surface.
func (cg *CallGraph) Names() []string { return cg.names }

// Reachable returns the set of declared functions reachable from roots
// (inclusive) over static call edges. Roots with no node are ignored;
// dynamic call sites truncate the walk.
func (cg *CallGraph) Reachable(roots ...string) map[string]bool {
	seen := make(map[string]bool)
	var queue []string
	for _, r := range roots {
		if cg.nodes[r] != nil && !seen[r] {
			seen[r] = true
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		name := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, callee := range cg.nodes[name].callees {
			if cg.nodes[callee] != nil && !seen[callee] {
				seen[callee] = true
				queue = append(queue, callee)
			}
		}
	}
	return seen
}
