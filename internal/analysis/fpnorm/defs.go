package fpnorm

import (
	"go/ast"
	"go/token"
	"go/types"
)

// localDef is one recorded definition of a local variable for copy
// chasing. A nil rhs marks a definition that is not a plain copy — an
// op-assign, an IncDec, one leg of a multi-value assignment — through
// which no value root or product may be chased: `acc += x*x` defines
// acc, but acc's value is acc+x*x, not x*x. (The cfg package's UseDef
// records the bare right-hand side for op-assigns too, which is the
// right taint semantics for detflow but would misread the copy chain
// here — hence this copy-only index.)
type localDef struct {
	rhs ast.Expr
	pos token.Pos
}

// copyDefs indexes every definition of every local variable in body,
// distinguishing plain copies (rhs recorded) from value-mutating
// definitions (rhs nil). Range key/value bindings record the ranged
// operand, so a range value chases back to the slice it reads.
func copyDefs(info *types.Info, body *ast.BlockStmt) map[*types.Var][]localDef {
	m := make(map[*types.Var][]localDef)
	mark := func(e ast.Expr, rhs ast.Expr) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return
		}
		v, ok := info.Defs[id].(*types.Var)
		if !ok {
			v, ok = info.Uses[id].(*types.Var)
		}
		if !ok || v == nil {
			return
		}
		m[v] = append(m[v], localDef{rhs: rhs, pos: id.Pos()})
	}
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.AssignStmt:
			if x.Tok == token.DEFINE || x.Tok == token.ASSIGN {
				if len(x.Lhs) == len(x.Rhs) {
					for i := range x.Lhs {
						mark(x.Lhs[i], x.Rhs[i])
					}
				} else {
					for _, lhs := range x.Lhs {
						mark(lhs, nil) // multi-value call: no single source
					}
				}
			} else {
				mark(x.Lhs[0], nil) // op-assign mutates, not copies
			}
		case *ast.ValueSpec:
			for i, name := range x.Names {
				if i < len(x.Values) {
					mark(name, x.Values[i])
				} else {
					mark(name, nil)
				}
			}
		case *ast.RangeStmt:
			if x.Key != nil {
				mark(x.Key, x.X)
			}
			if x.Value != nil {
				mark(x.Value, x.X)
			}
		case *ast.IncDecStmt:
			mark(x.X, nil)
		}
		return true
	})
	return m
}
