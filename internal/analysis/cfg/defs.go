package cfg

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Def is one definition (assignment or declaration) of a variable: the
// defining node and, when the definition has a traceable right-hand side,
// that expression (nil for `var x T`, range bindings record the ranged
// operand).
type Def struct {
	Var *types.Var
	Pos token.Pos
	RHS ast.Expr
}

// UseDef indexes every definition of every local variable in one
// function, grouped per variable and per block — the SSA-lite layer: a
// variable with exactly one definition can be chased through its RHS like
// an SSA value; a variable with several keeps the conservative union of
// all of them.
type UseDef struct {
	info *types.Info
	defs map[*types.Var][]Def
	// byBlock holds each block's definitions in order, the block-local
	// reaching-definitions gen set (last write per variable wins within
	// the block).
	byBlock map[*Block][]Def
}

// Defs collects the definitions of g's function. info must be the
// type-checked package's info.
func (g *Graph) Defs(info *types.Info) *UseDef {
	ud := &UseDef{
		info:    info,
		defs:    make(map[*types.Var][]Def),
		byBlock: make(map[*Block][]Def),
	}
	for _, blk := range g.Blocks {
		for _, n := range blk.Nodes {
			ud.collect(blk, n)
		}
	}
	return ud
}

func (ud *UseDef) collect(blk *Block, n ast.Node) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		for i, lhs := range n.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			v := ud.objOf(id)
			if v == nil {
				continue
			}
			var rhs ast.Expr
			if len(n.Rhs) == len(n.Lhs) {
				rhs = n.Rhs[i]
			} else if len(n.Rhs) == 1 {
				rhs = n.Rhs[0] // multi-value call: all LHS share the call
			}
			ud.record(blk, Def{Var: v, Pos: id.Pos(), RHS: rhs})
		}
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, id := range vs.Names {
				v := ud.objOf(id)
				if v == nil {
					continue
				}
				var rhs ast.Expr
				if i < len(vs.Values) {
					rhs = vs.Values[i]
				}
				ud.record(blk, Def{Var: v, Pos: id.Pos(), RHS: rhs})
			}
		}
	case *ast.RangeStmt:
		// Key/value bindings are definitions whose source is the ranged
		// operand — the hook detflow uses to see map-iteration taint.
		for _, e := range []ast.Expr{n.Key, n.Value} {
			if e == nil {
				continue
			}
			if id, ok := ast.Unparen(e).(*ast.Ident); ok {
				if v := ud.objOf(id); v != nil {
					ud.record(blk, Def{Var: v, Pos: id.Pos(), RHS: n.X})
				}
			}
		}
	case *ast.IfStmt:
		if n.Init != nil {
			ud.collect(blk, n.Init)
		}
	case *ast.IncDecStmt:
		if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
			if v := ud.objOf(id); v != nil {
				ud.record(blk, Def{Var: v, Pos: id.Pos(), RHS: n.X})
			}
		}
	}
}

func (ud *UseDef) objOf(id *ast.Ident) *types.Var {
	if v, ok := ud.info.Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := ud.info.Uses[id].(*types.Var); ok {
		return v
	}
	return nil
}

func (ud *UseDef) record(blk *Block, d Def) {
	ud.defs[d.Var] = append(ud.defs[d.Var], d)
	ud.byBlock[blk] = append(ud.byBlock[blk], d)
}

// Trace walks the use-def chains backward from expr, calling visit for
// every expression that can contribute a value to it: expr itself, the
// operands of arithmetic/conversions, and — through the SSA-lite chains —
// the right-hand sides of every definition of every identifier it meets.
// visit returning false prunes that subtree. Cycles (loop-carried
// definitions) are cut by the visited set.
func (ud *UseDef) Trace(expr ast.Expr, visit func(e ast.Expr, via []Def) bool) {
	seen := make(map[*types.Var]bool)
	var walk func(e ast.Expr, via []Def)
	walk = func(e ast.Expr, via []Def) {
		if e == nil || !visit(e, via) {
			return
		}
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			v := ud.objOf(e)
			if v == nil || seen[v] {
				return
			}
			seen[v] = true
			for _, d := range ud.defs[v] {
				if d.RHS != nil && d.RHS != e {
					walk(d.RHS, append(via[:len(via):len(via)], d))
				}
			}
		case *ast.BinaryExpr:
			walk(e.X, via)
			walk(e.Y, via)
		case *ast.UnaryExpr:
			walk(e.X, via)
		case *ast.CallExpr:
			// Conversions and calls contribute through their operands; a
			// method call also through its receiver (t0.UnixNano() taints
			// through t0).
			for _, a := range e.Args {
				walk(a, via)
			}
			if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
				walk(sel.X, via)
			}
		case *ast.IndexExpr:
			walk(e.X, via)
		case *ast.StarExpr:
			walk(e.X, via)
		}
	}
	walk(expr, nil)
}
