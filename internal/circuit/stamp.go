package circuit

import (
	"sync"

	"repro/internal/la"
)

// stampPlan is the Build-time compilation of the Kirchhoff assembly. The
// voltage system the IMEX step solves is
//
//	(shift·I + A(g))·v = b(g, nodeV, …) ,
//
// where each entry of shift·I + A, and each row of b's branch part, is a
// sum of fixed-coefficient terms; only the memristor conductances and the
// shift change between steps. The plan groups the terms by the value they
// sum into — a CSR entry, or a free row — and keeps, within each group,
// the order a branch-by-branch stamp into a zeroed array adds them in:
// the shift first, then the branches in plan order (memristors in state
// order, then resistors). The kernels accumulate each value in a register
// and store it once, adding the same rounded terms in the same order, so
// they produce the stamp's bits.
//
// Every term has one form, g[br]·coef for the matrix and
// g[br]·coef·nodeV[node] for the right-hand side, read from buffers laid
// out as
//
//	g     = [ memristor G(x) in state order | 1 | shift ]   (length nm+2)
//	nodeV = [ node voltages | 1 ]                          (length numNodes+1)
//
// A memristor term names its branch; the shift diagonal names the shift
// slot; a resistor term names the unit slot, its coefficient holding the
// product g·coef at g = 1/R — the one conductance the dynamics give a
// resistor branch — rounded as the stamp rounds it; a VCVG DC term names
// the unit voltage slot. Multiplying by the exact 1 leaves each product's
// bits as they were.
type stampPlan struct {
	csr *la.CSR // pattern template: RowPtr/ColIdx shared, Val is per-engine

	a terms // by CSR entry: the shift diagonal, then g·coef per branch term
	b terms // by free row: pinned-slot VCVG couplings, then VCVG DC terms
}

// terms is a list of stamp terms grouped by the value they sum into:
// value o owns the terms ptr[o] to ptr[o+1]. node is nil for the matrix.
type terms struct {
	ptr, br, node []int32
	coef          []float64
}

// gUnit and gShift index the two slots past the memristor conductances
// in the buffer the stamp kernels read; vUnit indexes the unit slot past
// the node voltages (see stampPlan).
func (c *Circuit) gUnit() int  { return c.nm }
func (c *Circuit) gShift() int { return c.nm + 1 }
func (c *Circuit) vUnit() int  { return c.numNodes }

// planScratch holds buildPlan's throwaway lists: the rows and columns of
// the matrix terms, which la.CompilePattern reads (it writes each term's
// CSR entry back into rows), and each row's count, then fill cursor, of
// right-hand-side couplings and of DC terms. A plan keeps none of them,
// so they come from planPool and go back. Like the la package's scratch
// it is a locked free list rather than a sync.Pool, which empties at
// garbage collection: a compile would then allocate its scratch at
// random.
type planScratch struct {
	rows, cols, rhs []int32
}

var planPool struct {
	sync.Mutex
	free []*planScratch
}

func getPlanScratch() *planScratch {
	planPool.Lock()
	defer planPool.Unlock()
	if n := len(planPool.free); n > 0 {
		s := planPool.free[n-1]
		planPool.free = planPool.free[:n-1]
		return s
	}
	return new(planScratch)
}

func putPlanScratch(s *planScratch) {
	planPool.Lock()
	defer planPool.Unlock()
	planPool.free = append(planPool.free, s)
}

// buildPlan compiles the stamp plan from the gates' DCM rows. The pattern is
// value-independent by construction: every matrix term sits on an
// explicit (zero) entry of the pattern, so the symbolic factorization
// computed for it stays valid for every conductance assignment the
// dynamics can produce.
//
// A branch on a free row contributes +g on its diagonal and one term per
// nonzero VCVG coefficient: a matrix term −g·coef when the slot node is
// free, a right-hand-side term g·coef·v_slot when it is pinned; its DC
// term is one more right-hand-side term g·dc. A branch on a pinned
// terminal contributes nothing: the source absorbs its KCL row.
//
// Two walks over the branches — each the memristor rows of every gate,
// then the resistor rows — file the terms with a stable counting
// sort. The first lists the matrix terms' rows and columns after the nv
// shift diagonals and counts each row's couplings and DC terms;
// la.CompilePattern maps every matrix term to its CSR entry. With every
// group's size known, the arrays are allocated once at their final
// lengths, and the second walk files each term at its group's cursor: by
// entry, and by row with the couplings ahead of the DC terms.
func (c *Circuit) buildPlan() *stampPlan {
	nv := c.nv
	sc := getPlanScratch()
	defer putPlanScratch(sc)

	rows, cols := sc.rows[:0], sc.cols[:0]
	for f := int32(0); f < int32(nv); f++ {
		rows, cols = append(rows, f), append(cols, f) // the shift diagonal
	}
	if cap(sc.rhs) < 2*nv {
		sc.rhs = make([]int32, 2*nv)
	}
	couple, dc := sc.rhs[:nv], sc.rhs[nv:2*nv]
	clear(couple)
	clear(dc)
	for res := 0; res < 2; res++ {
		for gi := range c.gates {
			inst := &c.gates[gi]
			for _, r := range inst.kindRows(res == 1) {
				fi := int32(c.freeIdx[inst.nodes[r.slot]])
				if fi < 0 {
					continue
				}
				rows, cols = append(rows, fi), append(cols, fi) // +g on the diagonal
				for k, coef := range [3]float64{r.a1, r.a2, r.ao} {
					if coef == 0 {
						continue
					}
					if sf := c.freeIdx[inst.nodes[k]]; sf >= 0 {
						rows, cols = append(rows, fi), append(cols, int32(sf))
					} else {
						couple[fi]++
					}
				}
				if r.dc != 0 {
					dc[fi]++
				}
			}
		}
	}
	sc.rows, sc.cols = rows, cols

	p := &stampPlan{csr: la.CompilePattern(nv, nv, rows, cols, rows)}
	entry := rows // each matrix term's CSR entry
	nnz, na, nb := p.csr.NNZ(), len(entry), 0
	for f := range couple {
		nb += int(couple[f] + dc[f])
	}
	ints := make([]int32, nnz+1+na+nv+1+2*nb)
	floats := make([]float64, na+nb)
	i32 := func(n int) []int32 {
		s := ints[:n:n]
		ints = ints[n:]
		return s
	}
	p.a = terms{ptr: i32(nnz + 1), br: i32(na), coef: floats[:na]}
	p.b = terms{ptr: i32(nv + 1), br: i32(nb), node: i32(nb), coef: floats[na:]}
	for _, e := range entry {
		p.a.ptr[e+1]++
	}
	p.a.cursors()
	for f := range couple {
		start := p.b.ptr[f]
		p.b.ptr[f+1] = start + couple[f] + dc[f]
		couple[f], dc[f] = start, start+couple[f] // now the fill cursors
	}

	// A memristor term names its branch; a resistor term names the unit
	// slot and holds g·coef at g = 1/R, rounded as the stamp rounds it.
	gUnit, vUnit := int32(c.gUnit()), int32(c.vUnit())
	invR := 1 / c.Params.R
	gShift := int32(c.gShift())
	for _, e := range entry[:nv] {
		p.a.put(e, gShift, 1)
	}
	k := nv // next matrix term
	for res := 0; res < 2; res++ {
		j := int32(0) // next memristor
		for gi := range c.gates {
			inst := &c.gates[gi]
			for _, row := range inst.kindRows(res == 1) {
				b, r := j, 1.0
				if res == 1 {
					b, r = gUnit, invR
				}
				j++
				fi := c.freeIdx[inst.nodes[row.slot]]
				if fi < 0 {
					continue
				}
				p.a.put(entry[k], b, r)
				k++
				for q, coef := range [3]float64{row.a1, row.a2, row.ao} {
					if coef == 0 {
						continue
					}
					if sn := inst.nodes[q]; c.freeIdx[sn] >= 0 {
						p.a.put(entry[k], b, float64(r*-coef))
						k++
					} else {
						p.b.set(couple[fi], b, sn, float64(r*coef))
						couple[fi]++
					}
				}
				if d := row.dc; d != 0 {
					p.b.set(dc[fi], b, vUnit, float64(r*d))
					dc[fi]++
				}
			}
		}
	}
	p.a.settle()
	return p
}

// cursors turns the per-value term counts held in ptr[1:] into fill
// cursors: ptr[o] becomes the first slot of value o.
func (t *terms) cursors() {
	for o := 1; o < len(t.ptr); o++ {
		t.ptr[o] += t.ptr[o-1]
	}
}

// put files a matrix term of value o at o's cursor ptr[o], which it
// advances; settle restores ptr afterwards.
func (t *terms) put(o, br int32, coef float64) {
	k := t.ptr[o]
	t.ptr[o]++
	t.br[k], t.coef[k] = br, coef
}

// settle restores ptr once every term is put: the puts left ptr[o] at
// the first slot of value o+1, so shifting ptr up one place makes it
// start every value again.
func (t *terms) settle() {
	copy(t.ptr[1:], t.ptr[:len(t.ptr)-1])
	t.ptr[0] = 0
}

// set writes right-hand-side term k.
func (t *terms) set(k, br, node int32, coef float64) {
	t.br[k], t.node[k], t.coef[k] = br, node, coef
}

// valCSR returns a private value array bound to the shared pattern, for
// one engine instance's assembly workspace.
func (p *stampPlan) valCSR() *la.CSR {
	return &la.CSR{
		Rows: p.csr.Rows, Cols: p.csr.Cols,
		RowPtr: p.csr.RowPtr, ColIdx: p.csr.ColIdx,
		Val: make([]float64, len(p.csr.Val)),
	}
}

// assemble writes shift·I + A(g) into a private CSR value array, g being
// the stepper's conductance buffer with its unit and shift slots set.
// Each entry is accumulated in a register from its terms and stored
// once.
//
//dmmvet:hotpath
func (p *stampPlan) assemble(vals []float64, g la.Vector) {
	ptr, br, coef := p.a.ptr[:len(vals)+1], p.a.br, p.a.coef
	lo := ptr[0]
	for e := range vals {
		hi := ptr[e+1]
		b, c := br[lo:hi], coef[lo:hi]
		var acc float64
		for k := range c {
			acc += float64(g[b[k]] * c[k])
		}
		vals[e] = acc
		lo = hi
	}
}

// assembleRHS writes the right-hand side of the step's voltage system:
// row f is its branch terms (row), then −i[f] for the VCDCG on free node
// f when the circuit has VCDCGs (len(i) > 0), then the history
// shift·v[f]. nodeV must hold the pinned nodes' voltages and its unit
// slot; its free entries are not read.
//
//dmmvet:hotpath
func (p *stampPlan) assembleRHS(rhs, g, nodeV, v, i la.Vector, shift float64) {
	v = v[:len(rhs)]
	for f := range rhs {
		acc := p.b.row(f, 0, g, nodeV)
		if len(i) > 0 {
			acc -= i[f]
		}
		rhs[f] = acc + float64(shift*v[f])
	}
}

// row adds the branch terms of right-hand-side row f, in plan order, to
// acc.
//
//dmmvet:hotpath
func (t *terms) row(f int, acc float64, g, nodeV la.Vector) float64 {
	lo, hi := t.ptr[f], t.ptr[f+1]
	br, node, coef := t.br[lo:hi], t.node[lo:hi], t.coef[lo:hi]
	for k, c := range coef {
		acc += float64(g[br[k]] * c * nodeV[node[k]])
	}
	return acc
}

// NNZ reports the voltage-system dimension and stored nonzeros of the
// sparse operator (observability for benchmarks and reports).
func (c *Circuit) NNZ() (nv, nnz int) {
	return c.nv, c.plan.csr.NNZ()
}

// Pattern returns a zero-valued matrix with the voltage system's sparsity
// pattern (the CSR Build compiled and factored symbolically). The index
// arrays are shared and must not be written; the value array is private.
func (c *Circuit) Pattern() *la.CSR { return c.plan.valCSR() }

// FactorNNZ reports the nonzeros of the symbolic L+U factors (pattern
// fill under the chosen ordering; observability for benchmarks).
func (c *Circuit) FactorNNZ() int { return c.symb.NNZFactors() }
