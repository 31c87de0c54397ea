// Package cfg gives the dmmvet analyzers a dataflow view of one function:
// a per-function control-flow graph over go/ast with go/types-aware
// constant-branch folding, block-local reaching definitions with SSA-lite
// use-def chains (defs.go), a conservative allocation/escape classifier
// (escape.go), a failure-exit ("cold block") analysis that separates
// error unwinding from the steady-state path, a per-function mutex-op
// summary (concsum.go) and a module-wide static call graph
// (callgraph.go).
//
// The graph is deliberately small: basic blocks hold the statements and
// control expressions they execute in order, and edges carry no labels.
// That is enough for the dataflow analyzers bundled into cmd/dmmvet
// (hotalloc, detflow, lockorder) while staying stdlib-only, since the
// offline build cannot fetch golang.org/x/tools/go/cfg.
package cfg

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// Block is one basic block: Nodes execute in order, then control moves to
// one of Succs. A block with no successors terminates the function
// (return, panic, or falling off the end).
type Block struct {
	Index int
	// Kind labels the block's origin for dumps and debugging:
	// "entry", "if.then", "if.else", "for.head", "for.body", "for.post",
	// "range.body", "switch.case", "select.comm", "join", ...
	Kind string
	// Nodes are the statements and control expressions evaluated in this
	// block, in execution order. Control expressions (an if condition, a
	// switch tag, a range operand) appear in the block that evaluates
	// them, before the branch.
	Nodes []ast.Node
	Succs []*Block
}

// Graph is the control-flow graph of one function body.
type Graph struct {
	Name   string
	Entry  *Block
	Blocks []*Block
}

type builder struct {
	g    *Graph
	info *types.Info // optional: folds constant branch conditions

	cur *Block // current block; nil after a terminator

	// break/continue targets of the enclosing loops/switches, innermost
	// last, with the statement's label (empty when unlabeled).
	breaks    []target
	continues []target

	labeled map[string]*Block // goto targets, patched after the walk
	gotos   []pendingGoto
}

type target struct {
	label string
	block *Block
}

type pendingGoto struct {
	from  *Block
	label string
}

// New builds the CFG of body. name labels the graph; info, when non-nil,
// is used to prune branches whose condition is a typed constant (an
// `if invariant.Enabled { … }` block is unreachable when the tag is off,
// and its allocations must not count against the hot path).
func New(name string, body *ast.BlockStmt, info *types.Info) *Graph {
	b := &builder{
		g:       &Graph{Name: name},
		info:    info,
		labeled: make(map[string]*Block),
	}
	b.cur = b.newBlock("entry")
	b.g.Entry = b.cur
	b.stmtList(body.List)
	for _, pg := range b.gotos {
		if dst, ok := b.labeled[pg.label]; ok {
			pg.from.Succs = append(pg.from.Succs, dst)
		}
	}
	return b.g
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// startBlock makes blk current, linking it from the previous block when
// that block has not already terminated.
func (b *builder) startBlock(blk *Block) {
	if b.cur != nil {
		b.cur.Succs = append(b.cur.Succs, blk)
	}
	b.cur = blk
}

func (b *builder) add(n ast.Node) {
	if b.cur != nil {
		b.cur.Nodes = append(b.cur.Nodes, n)
	}
}

// constCond reports whether e is a compile-time boolean constant, and its
// value. Build-tag gates like invariant.Enabled fold here.
func (b *builder) constCond(e ast.Expr) (val, ok bool) {
	if b.info == nil {
		return false, false
	}
	tv, found := b.info.Types[e]
	if !found || tv.Value == nil || tv.Value.Kind() != constant.Bool {
		return false, false
	}
	return constant.BoolVal(tv.Value), true
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	if b.cur == nil {
		// Unreachable code after a terminator: give it its own block so
		// its contents still exist in the graph (never linked).
		b.cur = b.newBlock("unreachable")
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		b.ifStmt(s)

	case *ast.ForStmt:
		b.forStmt(s, "")

	case *ast.RangeStmt:
		b.rangeStmt(s, "")

	case *ast.SwitchStmt:
		b.switchStmt(s, "")

	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s, "")

	case *ast.SelectStmt:
		b.selectStmt(s, "")

	case *ast.LabeledStmt:
		b.labeledStmt(s)

	case *ast.ReturnStmt:
		b.add(s)
		b.cur = nil

	case *ast.BranchStmt:
		b.branchStmt(s)

	case *ast.ExprStmt:
		b.add(s)
		if isTerminalCall(s.X) {
			b.cur = nil
		}

	default:
		// assignments, declarations, defer, go, send, incdec, empty
		b.add(s)
	}
}

// isTerminalCall reports whether e is a call that never returns
// (panic, or os.Exit-shaped by name).
func isTerminalCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		return fun.Sel.Name == "Exit" || fun.Sel.Name == "Fatal" || fun.Sel.Name == "Fatalf"
	}
	return false
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Cond)
	cond := b.cur

	// Constant conditions keep only the live arm; the dead arm still gets
	// blocks (for dumps) but no incoming edge.
	cval, cok := b.constCond(s.Cond)

	then := b.newBlock("if.then")
	if !cok || cval {
		cond.Succs = append(cond.Succs, then)
	}
	b.cur = then
	b.stmtList(s.Body.List)
	thenEnd := b.cur

	var elseEnd *Block
	haveElse := s.Else != nil
	if haveElse {
		els := b.newBlock("if.else")
		if !cok || !cval {
			cond.Succs = append(cond.Succs, els)
		}
		b.cur = els
		b.stmt(s.Else)
		elseEnd = b.cur
	}

	join := b.newBlock("join")
	if thenEnd != nil {
		thenEnd.Succs = append(thenEnd.Succs, join)
	}
	if haveElse {
		if elseEnd != nil {
			elseEnd.Succs = append(elseEnd.Succs, join)
		}
	} else if !cok || !cval {
		cond.Succs = append(cond.Succs, join)
	}
	b.cur = join
}

func (b *builder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	head := b.newBlock("for.head")
	b.startBlock(head)
	if s.Cond != nil {
		b.add(s.Cond)
	}

	body := b.newBlock("for.body")
	join := b.newBlock("join")
	head.Succs = append(head.Succs, body)
	if s.Cond != nil {
		head.Succs = append(head.Succs, join)
	}

	post := head
	if s.Post != nil {
		post = b.newBlock("for.post")
		post.Nodes = append(post.Nodes, s.Post)
		post.Succs = append(post.Succs, head)
	}

	b.breaks = append(b.breaks, target{label, join})
	b.continues = append(b.continues, target{label, post})
	b.cur = body
	b.stmtList(s.Body.List)
	if b.cur != nil {
		b.cur.Succs = append(b.cur.Succs, post)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
	b.cur = join
}

func (b *builder) rangeStmt(s *ast.RangeStmt, label string) {
	b.add(s.X)
	head := b.newBlock("range.head")
	b.startBlock(head)
	head.Nodes = append(head.Nodes, s) // the per-iteration key/value binding

	body := b.newBlock("range.body")
	join := b.newBlock("join")
	head.Succs = append(head.Succs, body, join)

	b.breaks = append(b.breaks, target{label, join})
	b.continues = append(b.continues, target{label, head})
	b.cur = body
	b.stmtList(s.Body.List)
	if b.cur != nil {
		b.cur.Succs = append(b.cur.Succs, head)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
	b.cur = join
}

func (b *builder) switchStmt(s *ast.SwitchStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	if s.Tag != nil {
		b.add(s.Tag)
	}
	head := b.cur
	join := b.newBlock("join")
	b.breaks = append(b.breaks, target{label, join})

	var clauses []*ast.CaseClause
	for _, c := range s.Body.List {
		clauses = append(clauses, c.(*ast.CaseClause))
	}
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		kind := "switch.case"
		if c.List == nil {
			kind = "switch.default"
			hasDefault = true
		}
		blocks[i] = b.newBlock(kind)
		if head != nil {
			head.Succs = append(head.Succs, blocks[i])
		}
	}
	if !hasDefault && head != nil {
		head.Succs = append(head.Succs, join)
	}
	for i, c := range clauses {
		b.cur = blocks[i]
		for _, e := range c.List {
			b.add(e)
		}
		b.stmtList(c.Body)
		if b.cur != nil {
			if ft := fallsThrough(c.Body); ft && i+1 < len(blocks) {
				b.cur.Succs = append(b.cur.Succs, blocks[i+1])
			} else {
				b.cur.Succs = append(b.cur.Succs, join)
			}
		}
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = join
}

func fallsThrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

func (b *builder) typeSwitchStmt(s *ast.TypeSwitchStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Assign)
	head := b.cur
	join := b.newBlock("join")
	b.breaks = append(b.breaks, target{label, join})

	hasDefault := false
	for _, raw := range s.Body.List {
		c := raw.(*ast.CaseClause)
		kind := "typeswitch.case"
		if c.List == nil {
			kind = "typeswitch.default"
			hasDefault = true
		}
		blk := b.newBlock(kind)
		if head != nil {
			head.Succs = append(head.Succs, blk)
		}
		b.cur = blk
		b.stmtList(c.Body)
		if b.cur != nil {
			b.cur.Succs = append(b.cur.Succs, join)
		}
	}
	if !hasDefault && head != nil {
		head.Succs = append(head.Succs, join)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = join
}

func (b *builder) selectStmt(s *ast.SelectStmt, label string) {
	head := b.cur
	join := b.newBlock("join")
	b.breaks = append(b.breaks, target{label, join})
	for _, raw := range s.Body.List {
		c := raw.(*ast.CommClause)
		kind := "select.comm"
		if c.Comm == nil {
			kind = "select.default"
		}
		blk := b.newBlock(kind)
		if head != nil {
			head.Succs = append(head.Succs, blk)
		}
		b.cur = blk
		if c.Comm != nil {
			b.add(c.Comm)
		}
		b.stmtList(c.Body)
		if b.cur != nil {
			b.cur.Succs = append(b.cur.Succs, join)
		}
	}
	// A select with no default still always takes some clause; no direct
	// head→join edge either way (an empty select blocks forever, which
	// the graph approximates as the join being unreachable).
	if len(s.Body.List) == 0 && head != nil {
		head.Succs = append(head.Succs, join)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = join
}

func (b *builder) labeledStmt(s *ast.LabeledStmt) {
	name := s.Label.Name
	switch inner := s.Stmt.(type) {
	case *ast.ForStmt:
		head := b.newBlock("label." + name)
		b.startBlock(head)
		b.labeled[name] = head
		b.forStmt(inner, name)
	case *ast.RangeStmt:
		head := b.newBlock("label." + name)
		b.startBlock(head)
		b.labeled[name] = head
		b.rangeStmt(inner, name)
	case *ast.SwitchStmt:
		b.switchStmt(inner, name)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(inner, name)
	case *ast.SelectStmt:
		b.selectStmt(inner, name)
	default:
		blk := b.newBlock("label." + name)
		b.startBlock(blk)
		b.labeled[name] = blk
		b.stmt(inner)
	}
}

func (b *builder) branchStmt(s *ast.BranchStmt) {
	b.add(s)
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	find := func(stack []target) *Block {
		for i := len(stack) - 1; i >= 0; i-- {
			if label == "" || stack[i].label == label {
				return stack[i].block
			}
		}
		return nil
	}
	switch s.Tok {
	case token.BREAK:
		if dst := find(b.breaks); dst != nil && b.cur != nil {
			b.cur.Succs = append(b.cur.Succs, dst)
		}
		b.cur = nil
	case token.CONTINUE:
		if dst := find(b.continues); dst != nil && b.cur != nil {
			b.cur.Succs = append(b.cur.Succs, dst)
		}
		b.cur = nil
	case token.GOTO:
		if b.cur != nil {
			b.gotos = append(b.gotos, pendingGoto{b.cur, label})
		}
		b.cur = nil
	case token.FALLTHROUGH:
		// handled structurally by switchStmt
	}
}
