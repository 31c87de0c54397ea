package circuit

import (
	"repro/internal/device"
	"repro/internal/la"
)

// branchSet is a structure-of-arrays view over the DCM branches of one
// kind (memristive or resistive). Splitting by kind and laying the hot
// fields out as parallel arrays straightens the per-step loops of Step and
// Derivative: no per-branch struct loads, no mem/resistor branch inside
// the loop body, and the VCVG level evaluates as one fused expression
//
//	l = a1·v[i1] + a2·v[i2] + ao·v[io] + dc
//
// because unused terminal slots are stored as index 0 with a zero
// coefficient instead of a -1 sentinel that would need a branch.
type branchSet struct {
	node       []int32   // terminal node the branch hangs off
	fi         []int32   // freeIdx[node], -1 when the terminal is pinned
	i1, i2, io []int32   // resolved VCVG slot nodes (0 when the slot is unused)
	a1, a2, ao []float64 // VCVG coefficients (0 when the slot is unused)
	dc         []float64 // VCVG DC term
	sigma      []float64 // memristor polarity; nil for the resistor set
}

func (s *branchSet) len() int { return len(s.node) }

func (s *branchSet) add(node, fi int, slots [3]int32, v device.VCVG, sigma float64, mem bool) {
	s.node = append(s.node, int32(node))
	s.fi = append(s.fi, int32(fi))
	a := [3]float64{v.A1, v.A2, v.Ao}
	idx := [3]int32{}
	for k := 0; k < 3; k++ {
		if slots[k] < 0 {
			a[k] = 0 // unused slot: contribute exactly nothing, branch-free
		} else {
			idx[k] = slots[k]
		}
	}
	s.i1 = append(s.i1, idx[0])
	s.i2 = append(s.i2, idx[1])
	s.io = append(s.io, idx[2])
	s.a1 = append(s.a1, a[0])
	s.a2 = append(s.a2, a[1])
	s.ao = append(s.ao, a[2])
	s.dc = append(s.dc, v.DC)
	if mem {
		s.sigma = append(s.sigma, sigma)
	}
}

// level evaluates the branch's VCVG target voltage from the node-voltage
// vector.
func (s *branchSet) level(j int, nodeV la.Vector) float64 {
	return float64(s.a1[j]*nodeV[s.i1[j]]) + float64(s.a2[j]*nodeV[s.i2[j]]) + float64(s.ao[j]*nodeV[s.io[j]]) + s.dc[j]
}

// stampPlan is the Build-time compilation of the Kirchhoff assembly. The
// voltage system both engines solve is
//
//	(shift·I + A(g))·v = b(g, nodeV, …) ,
//
// where A's entries are sums of g_b·coef over branches b with fixed
// coefficients — only the conductances g change between steps. The plan
// resolves every stamp to a flat op list at Build time: a direct index
// into the CSR value array (and the matching dense offset for the -dense
// A/B path), the branch's slot in the conductance buffer, and the
// constant coefficient. Per-step assembly is then a single pass over
// plain arrays — no map lookups, no slot recomputation, no allocation.
//
// Conductance buffer layout: g[0:nm] are the memristor branches in state
// order (g[m] belongs to x[m]), g[nm:] the resistor branches at 1/R.
type stampPlan struct {
	nv  int
	csr *la.CSR // pattern template: RowPtr/ColIdx shared, Val is per-engine

	diag []int32 // free index f -> csr.Val index of (f,f), for the shift

	// Matrix ops: Val[mIdx[k]] += g[mBr[k]]·mCoef[k]; mDen[k] is the
	// row-major dense offset of the same entry.
	mIdx, mDen, mBr []int32
	mCoef           []float64

	// RHS voltage ops (pinned-terminal slots): rhs[rFi[k]] +=
	// g[rBr[k]]·rCoef[k]·nodeV[rNode[k]].
	rFi, rBr, rNode []int32
	rCoef           []float64

	// RHS DC ops: rhs[dFi[k]] += g[dBr[k]]·dDC[k].
	dFi, dBr []int32
	dDC      []float64
}

// planOver walks both branch sets in conductance-buffer order, calling fn
// with each branch's global conductance slot, free row, and slot data.
func (c *Circuit) planOver(fn func(br, fi int, slots [3]int32, coeffs [3]float64, dc float64)) {
	sets := [2]*branchSet{&c.memBr, &c.resBr}
	br := 0
	for _, set := range sets {
		for j := 0; j < set.len(); j++ {
			fn(br, int(set.fi[j]),
				[3]int32{set.i1[j], set.i2[j], set.io[j]},
				[3]float64{set.a1[j], set.a2[j], set.ao[j]},
				set.dc[j])
			br++
		}
	}
}

// buildPlan compiles the stamp plan from the branch sets. The pattern is
// value-independent by construction: every op position is stamped as an
// explicit (possibly zero) entry, and la.Builder keeps explicit zeros, so
// the symbolic factorization computed here stays valid for every
// conductance assignment the dynamics can produce.
func (c *Circuit) buildPlan() *stampPlan {
	p := &stampPlan{nv: c.nv}
	pb := la.NewBuilder(c.nv, c.nv)
	for f := 0; f < c.nv; f++ {
		pb.Add(f, f, 0) // shift diagonal is always present
	}
	type matOp struct {
		row, col, br int32
		coef         float64
	}
	var mats []matOp
	c.planOver(func(br, fi int, slots [3]int32, coeffs [3]float64, dc float64) {
		if fi < 0 {
			return // pinned terminal: its KCL row is absorbed by the source
		}
		mats = append(mats, matOp{int32(fi), int32(fi), int32(br), 1}) // +g on the diagonal
		for k := 0; k < 3; k++ {
			if coeffs[k] == 0 {
				continue
			}
			sn := slots[k]
			if sf := c.freeIdx[sn]; sf >= 0 {
				mats = append(mats, matOp{int32(fi), int32(sf), int32(br), -coeffs[k]})
				pb.Add(fi, int(sf), 0)
			} else {
				p.rFi = append(p.rFi, int32(fi))
				p.rBr = append(p.rBr, int32(br))
				p.rNode = append(p.rNode, sn)
				p.rCoef = append(p.rCoef, coeffs[k])
			}
		}
		if dc != 0 {
			p.dFi = append(p.dFi, int32(fi))
			p.dBr = append(p.dBr, int32(br))
			p.dDC = append(p.dDC, dc)
		}
	})
	p.csr = pb.Compile()

	// Resolve (row, col) positions to direct CSR value indices.
	valIdx := func(row, col int32) int32 {
		for t := p.csr.RowPtr[row]; t < p.csr.RowPtr[row+1]; t++ {
			if p.csr.ColIdx[t] == int(col) {
				return int32(t)
			}
		}
		panic("circuit: stamp plan entry missing from compiled pattern")
	}
	p.diag = make([]int32, c.nv)
	for f := 0; f < c.nv; f++ {
		p.diag[f] = valIdx(int32(f), int32(f))
	}
	for _, m := range mats {
		p.mIdx = append(p.mIdx, valIdx(m.row, m.col))
		p.mDen = append(p.mDen, m.row*int32(c.nv)+m.col)
		p.mBr = append(p.mBr, m.br)
		p.mCoef = append(p.mCoef, m.coef)
	}
	return p
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

// assemble writes shift·I + A(g) into vals, which is either a private CSR
// value array (sparse path, indexed by mIdx) or a dense row-major array
// (dense path, indexed by mDen). The two arms share every op.
func (p *stampPlan) assemble(vals []float64, dense bool, shift float64, g la.Vector) {
	if dense {
		p.assembleDense(vals, shift, g)
		return
	}
	p.assembleSparse(vals, shift, g)
}

// assembleSparse is the sparse assembly arm: zero, shift on the diagonal
// CSR slots, then one multiply-accumulate per stamp op.
//
//dmmvet:hotpath
func (p *stampPlan) assembleSparse(vals []float64, shift float64, g la.Vector) {
	for i := range vals {
		vals[i] = 0
	}
	for _, d := range p.diag {
		vals[d] = shift
	}
	for k, idx := range p.mIdx {
		vals[idx] += float64(g[p.mBr[k]] * p.mCoef[k])
	}
}

// assembleDense is the dense assembly arm: same zero/shift/accumulate
// sequence over row-major storage.
//
//dmmvet:hotpath
func (p *stampPlan) assembleDense(vals []float64, shift float64, g la.Vector) {
	for i := range vals {
		vals[i] = 0
	}
	nv1 := p.nv + 1
	for f := 0; f < p.nv; f++ {
		vals[f*nv1] = shift
	}
	for k, den := range p.mDen {
		vals[den] += float64(g[p.mBr[k]] * p.mCoef[k])
	}
}

// assembleRHS accumulates the branch contributions to the right-hand side:
// pinned-terminal VCVG couplings and DC terms. rhs must be pre-zeroed;
// further terms (VCDCG currents, the C/h·v history) are the caller's.
//
//dmmvet:hotpath
func (p *stampPlan) assembleRHS(rhs la.Vector, g la.Vector, nodeV la.Vector) {
	for k, fi := range p.rFi {
		rhs[fi] += float64(g[p.rBr[k]] * p.rCoef[k] * nodeV[p.rNode[k]])
	}
	for k, fi := range p.dFi {
		rhs[fi] += float64(g[p.dBr[k]] * p.dDC[k])
	}
}

// NNZ reports the voltage-system dimension and stored nonzeros of the
// sparse operator (observability for benchmarks and reports).
func (c *Circuit) NNZ() (nv, nnz int) {
	return c.nv, c.plan.csr.NNZ()
}

// FactorNNZ reports the nonzeros of the symbolic L+U factors (pattern
// fill under the chosen ordering; observability for benchmarks).
func (c *Circuit) FactorNNZ() int { return c.symb.NNZFactors() }
