// Package stateclone enforces the aliasing half of the Circuit/Stepper
// contract: a method may read and even update a caller-provided state
// slice in place (that is how steppers advance x), but it must never
// *retain* one — storing the slice (or a reslice of it) into a receiver
// field or a package variable aliases caller memory into long-lived
// state, which is exactly the bug class that broke per-attempt isolation
// before Circuit.Clone gave every restart attempt private scratch.
// Retained copies must go through Clone() or copy().
package stateclone

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "stateclone",
	Doc: "forbid methods from storing caller-provided slices (or reslices of them) into receiver fields " +
		"or package variables; retain a Clone()/copy instead",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			params := sliceParams(pass, fd)
			if len(params) == 0 {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				as, ok := n.(*ast.AssignStmt)
				if !ok {
					return true
				}
				for i, rhs := range as.Rhs {
					if i >= len(as.Lhs) {
						break
					}
					p := aliasedParam(pass, params, rhs)
					if p == nil {
						continue
					}
					if !retainingLHS(pass, as.Lhs[i]) {
						continue
					}
					pass.Reportf(as.Pos(),
						"method %s stores caller-provided slice %q into long-lived state; retain %s.Clone() (or copy into owned scratch) instead",
						fd.Name.Name, p.Name(), p.Name())
				}
				return true
			})
		}
	}
	return nil
}

// sliceParams collects the parameters of fd whose underlying type is a
// slice.
func sliceParams(pass *analysis.Pass, fd *ast.FuncDecl) map[types.Object]bool {
	out := make(map[types.Object]bool)
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			obj := pass.TypesInfo.Defs[name]
			if obj == nil {
				continue
			}
			if _, ok := obj.Type().Underlying().(*types.Slice); ok {
				out[obj] = true
			}
		}
	}
	return out
}

// aliasedParam reports the slice parameter that rhs aliases: the bare
// parameter, a reslice of it (p[i:j]), or a parenthesization of either.
func aliasedParam(pass *analysis.Pass, params map[types.Object]bool, rhs ast.Expr) types.Object {
	switch e := ast.Unparen(rhs).(type) {
	case *ast.Ident:
		if obj := pass.TypesInfo.Uses[e]; obj != nil && params[obj] {
			return obj
		}
	case *ast.SliceExpr:
		return aliasedParam(pass, params, e.X)
	}
	return nil
}

// retainingLHS reports whether the assignment target outlives the call:
// a struct field (receiver or nested) or a package-level variable.
func retainingLHS(pass *analysis.Pass, lhs ast.Expr) bool {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		sel, ok := pass.TypesInfo.Selections[e]
		return ok && sel.Kind() == types.FieldVal
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[e]
		if obj == nil {
			return false
		}
		v, ok := obj.(*types.Var)
		// package-level variable: its scope is the package scope.
		return ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
	}
	return false
}
