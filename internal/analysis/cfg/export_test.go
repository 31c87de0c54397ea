package cfg

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// The renderings and accessors below exist for the golden tests only;
// no analyzer reads them.

// Dump renders the graph as one line per block —
//
//	b0 entry: [x := 0; if x > 0] -> b1 b3
//
// — stable across runs.
func (g *Graph) Dump(fset *token.FileSet) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s:\n", g.Name)
	for _, blk := range g.Blocks {
		fmt.Fprintf(&sb, "  b%d %s: [%s]", blk.Index, blk.Kind, nodeSummary(fset, blk.Nodes))
		if len(blk.Succs) > 0 {
			sb.WriteString(" ->")
			for _, s := range blk.Succs {
				fmt.Fprintf(&sb, " b%d", s.Index)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func nodeSummary(fset *token.FileSet, nodes []ast.Node) string {
	parts := make([]string, 0, len(nodes))
	for _, n := range nodes {
		if rs, ok := n.(*ast.RangeStmt); ok {
			// Print only the binding, not the whole loop body.
			var kv []string
			if rs.Key != nil {
				kv = append(kv, exprString(fset, rs.Key))
			}
			if rs.Value != nil {
				kv = append(kv, exprString(fset, rs.Value))
			}
			parts = append(parts, fmt.Sprintf("range-bind %s", strings.Join(kv, ", ")))
			continue
		}
		parts = append(parts, exprString(fset, n))
	}
	return strings.Join(parts, "; ")
}

func exprString(fset *token.FileSet, n ast.Node) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, n); err != nil {
		return fmt.Sprintf("<%T>", n)
	}
	s := buf.String()
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i] + " …"
	}
	return s
}

// Dump renders the call graph one function per line in sorted order —
//
//	repro/internal/par.ForEach -> repro/internal/par.Limit [ext 2]
//
// listing in-graph callees by name, with external edges reduced to a
// count.
func (cg *CallGraph) Dump() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "callgraph (%d functions):\n", len(cg.names))
	for _, name := range cg.names {
		var local []string
		ext := 0
		for _, callee := range cg.nodes[name].callees {
			if cg.nodes[callee] != nil {
				local = append(local, callee)
			} else {
				ext++
			}
		}
		fmt.Fprintf(&sb, "  %s", name)
		if len(local) > 0 {
			fmt.Fprintf(&sb, " -> %s", strings.Join(local, ", "))
		}
		if ext > 0 {
			fmt.Fprintf(&sb, " [ext %d]", ext)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Dump renders the summary one op per line in source order —
//
//	lit deferred @14
//	mutex Unlock (p.S).mu deferred @20
//
// with positions as line numbers resolved through fset.
func (s *ConcSummary) Dump(fset *token.FileSet) string {
	type row struct {
		pos  token.Pos
		text string
	}
	var rows []row
	for _, body := range s.Lits {
		text := "lit"
		if slices.Contains(s.Deferred, body) {
			text += " deferred"
		}
		rows = append(rows, row{body.Pos(), text})
	}
	for _, l := range s.Locks {
		text := fmt.Sprintf("mutex %s %s", l.Op, l.Key)
		if l.Deferred {
			text += " deferred"
		}
		rows = append(rows, row{l.Pos, text})
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].pos < rows[j].pos })
	var sb strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&sb, "%s @%d\n", r.text, fset.Position(r.pos).Line)
	}
	return sb.String()
}

// DefsOf returns every recorded definition of v.
func (ud *UseDef) DefsOf(v *types.Var) []Def { return ud.defs[v] }

// ReachingOut returns the definitions live at the end of blk: the last
// definition per variable within the block (block-local kill), which is
// the gen set a full dataflow fixpoint would propagate.
func (ud *UseDef) ReachingOut(blk *Block) map[*types.Var]Def {
	out := make(map[*types.Var]Def)
	for _, d := range ud.byBlock[blk] {
		out[d.Var] = d // later defs overwrite earlier: block-local kill
	}
	return out
}
