package fpnorm

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FuseSite is one FMA-fusable pattern: a float add or subtract one of
// whose operands is — directly, or through pure local copies chased via
// the copy-only definition index — an unbarriered float product. The Go
// spec permits an implementation to fuse the multiply into the add with
// a single rounding ("An implementation may combine multiple
// floating-point operations into a single fused operation, possibly
// across statements"), so gc emits FMADD on arm64 where baseline amd64
// rounds twice — the same source, two trajectories.
type FuseSite struct {
	Add token.Pos // the + / - / += / -= operator
	Mul token.Pos // the contributing product's operator
	// ViaName/ViaPos name the intermediate local and its defining
	// position when the product travels through one; ViaName is empty
	// when the operand is the product directly.
	ViaName string
	ViaPos  token.Pos
}

// FuseSites classifies every FMA-fusable site in one function. An
// operand wrapped in an explicit float conversion is barriered and
// exempt; a product consumed through math.FMA never appears here (a
// call is not a multiply). Copy chains are chased through plain
// assignments only — an op-assign (`acc += x*x`) already rounds acc
// through its own add, so it stops the chase (and is itself classified
// at the `+=`).
func FuseSites(info *types.Info, fd *ast.FuncDecl) []FuseSite {
	if fd.Body == nil {
		return nil
	}
	copies := copyDefs(info, fd.Body)
	var out []FuseSite
	ast.Inspect(fd.Body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.BinaryExpr:
			if (x.Op == token.ADD || x.Op == token.SUB) && exprIsFloat(info, x) {
				out = appendSites(out, info, copies, x.X, x.OpPos)
				out = appendSites(out, info, copies, x.Y, x.OpPos)
			}
		case *ast.AssignStmt:
			if (x.Tok == token.ADD_ASSIGN || x.Tok == token.SUB_ASSIGN) &&
				len(x.Lhs) == 1 && exprIsFloat(info, x.Lhs[0]) {
				out = appendSites(out, info, copies, x.Rhs[0], x.TokPos)
			}
		}
		return true
	})
	return out
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func exprIsFloat(info *types.Info, e ast.Expr) bool {
	if tv, ok := info.Types[e]; ok {
		return isFloat(tv.Type)
	}
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		if obj := info.Uses[id]; obj != nil {
			return isFloat(obj.Type())
		}
	}
	return false
}

// appendSites records the fusable products reachable from one add
// operand: the operand itself if it is a float multiply, or — chasing
// identifiers through their plain-copy definitions — any copy chain
// ending in one. A conversion anywhere on the chain is a rounding
// barrier and stops the chase; arithmetic other than a product already
// rounds its result.
func appendSites(out []FuseSite, info *types.Info, copies map[*types.Var][]localDef, operand ast.Expr, addPos token.Pos) []FuseSite {
	seen := make(map[*types.Var]bool)
	var walk func(e ast.Expr, viaName string, viaPos token.Pos)
	walk = func(e ast.Expr, viaName string, viaPos token.Pos) {
		switch e := ast.Unparen(e).(type) {
		case *ast.BinaryExpr:
			if e.Op == token.MUL && exprIsFloat(info, e) {
				out = append(out, FuseSite{Add: addPos, Mul: e.OpPos, ViaName: viaName, ViaPos: viaPos})
			}
		case *ast.UnaryExpr:
			if e.Op == token.SUB || e.Op == token.ADD {
				walk(e.X, viaName, viaPos) // -(a*b) fuses as FNMADD just the same
			}
		case *ast.Ident:
			v, ok := info.Uses[e].(*types.Var)
			if !ok || seen[v] {
				return
			}
			seen[v] = true
			for _, d := range copies[v] {
				if d.rhs == nil || d.rhs == e {
					continue
				}
				walk(d.rhs, v.Name(), d.pos)
			}
		case *ast.CallExpr:
			// Conversions are barriers; real calls round their result.
		}
	}
	walk(operand, "", token.NoPos)
	return out
}
