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

// newBranchSet returns an empty set with room for n branches; its int32
// and float64 fields each share one backing array. Only a memristor set
// carries sigma.
func newBranchSet(n int, mem bool) branchSet {
	ints := make([]int32, 5*n)
	nf := 4 * n
	if mem {
		nf = 5 * n
	}
	floats := make([]float64, nf)
	i32 := func(k int) []int32 { return ints[k*n : k*n : (k+1)*n] }
	f64 := func(k int) []float64 { return floats[k*n : k*n : (k+1)*n] }
	s := branchSet{
		node: i32(0), fi: i32(1), i1: i32(2), i2: i32(3), io: i32(4),
		a1: f64(0), a2: f64(1), ao: f64(2), dc: f64(3),
	}
	if mem {
		s.sigma = f64(4)
	}
	return s
}

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
// voltage system the IMEX step solves is
//
//	(shift·I + A(g))·v = b(g, nodeV, …) ,
//
// where A's entries are sums of g_b·coef over branches b with fixed
// coefficients — only the conductances g change between steps. The plan
// resolves every stamp to a flat op list at Build time: a direct index
// into the CSR value array, the branch's slot in the conductance buffer,
// and the constant coefficient. Per-step assembly is then a single pass over
// plain arrays — no map lookups, no slot recomputation, no allocation.
//
// Conductance buffer layout: g[0:nm] are the memristor branches in state
// order (g[m] belongs to x[m]), g[nm:] the resistor branches at 1/R.
type stampPlan struct {
	csr *la.CSR // pattern template: RowPtr/ColIdx shared, Val is per-engine

	diag []int32 // free index f -> csr.Val index of (f,f), for the shift

	// Matrix ops: Val[mIdx[k]] += g[mBr[k]]·mCoef[k].
	mIdx, mBr []int32
	mCoef     []float64

	// RHS voltage ops (pinned-terminal slots): rhs[rFi[k]] +=
	// g[rBr[k]]·rCoef[k]·nodeV[rNode[k]].
	rFi, rBr, rNode []int32
	rCoef           []float64

	// RHS DC ops: rhs[dFi[k]] += g[dBr[k]]·dDC[k].
	dFi, dBr []int32
	dDC      []float64
}

// buildPlan compiles the stamp plan from the branch sets. The pattern is
// value-independent by construction: every op position is stamped as an
// explicit (possibly zero) entry, and la.Builder keeps explicit zeros, so
// the symbolic factorization computed here stays valid for every
// conductance assignment the dynamics can produce.
//
// Branches are walked in conductance-buffer order (memristors, then
// resistors) twice: once to count every kind of op, so each array is
// allocated once at its final length, and once to fill them. A branch on
// a free row contributes +g on its diagonal and one op per nonzero VCVG
// coefficient: a matrix op when the slot node is free, a right-hand-side
// op when it is pinned; its DC term is one more right-hand-side op.
func (c *Circuit) buildPlan() *stampPlan {
	sets := [2]*branchSet{&c.memBr, &c.resBr}
	var nMat, nOff, nR, nD int
	for _, set := range sets {
		for j, fi := range set.fi {
			if fi < 0 {
				continue // pinned terminal: its KCL row is absorbed by the source
			}
			nMat++
			slots := [3]int32{set.i1[j], set.i2[j], set.io[j]}
			for k, coef := range [3]float64{set.a1[j], set.a2[j], set.ao[j]} {
				switch {
				case coef == 0:
				case c.freeIdx[slots[k]] >= 0:
					nOff++
				default:
					nR++
				}
			}
			if set.dc[j] != 0 {
				nD++
			}
		}
	}
	nMat += nOff

	p := &stampPlan{
		diag: make([]int32, c.nv),
		mIdx: make([]int32, 0, nMat), mBr: make([]int32, 0, nMat), mCoef: make([]float64, 0, nMat),
		rFi: make([]int32, 0, nR), rBr: make([]int32, 0, nR), rNode: make([]int32, 0, nR), rCoef: make([]float64, 0, nR),
		dFi: make([]int32, 0, nD), dBr: make([]int32, 0, nD), dDC: make([]float64, 0, nD),
	}
	pb := la.NewBuilder(c.nv, c.nv)
	pb.Reserve(c.nv + nOff)
	for f := 0; f < c.nv; f++ {
		pb.Add(f, f, 0) // shift diagonal is always present: entry f
	}
	// Until the pattern is compiled, mIdx holds the index of the builder
	// entry each matrix op lands on.
	br := int32(0)
	for _, set := range sets {
		for j, fi := range set.fi {
			if fi < 0 {
				br++
				continue
			}
			p.mIdx = append(p.mIdx, fi) // +g on the diagonal
			p.mBr = append(p.mBr, br)
			p.mCoef = append(p.mCoef, 1)
			slots := [3]int32{set.i1[j], set.i2[j], set.io[j]}
			for k, coef := range [3]float64{set.a1[j], set.a2[j], set.ao[j]} {
				if coef == 0 {
					continue
				}
				sn := slots[k]
				if sf := c.freeIdx[sn]; sf >= 0 {
					p.mIdx = append(p.mIdx, int32(pb.NNZ()))
					p.mBr = append(p.mBr, br)
					p.mCoef = append(p.mCoef, -coef)
					pb.Add(int(fi), sf, 0)
				} else {
					p.rFi = append(p.rFi, fi)
					p.rBr = append(p.rBr, br)
					p.rNode = append(p.rNode, sn)
					p.rCoef = append(p.rCoef, coef)
				}
			}
			if dc := set.dc[j]; dc != 0 {
				p.dFi = append(p.dFi, fi)
				p.dBr = append(p.dBr, br)
				p.dDC = append(p.dDC, dc)
			}
			br++
		}
	}
	var pos []int32
	p.csr, pos = pb.CompileIndexed()
	copy(p.diag, pos[:c.nv])
	for k, e := range p.mIdx {
		p.mIdx[k] = pos[e]
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

// assemble writes shift·I + A(g) into a private CSR value array: zero,
// shift on the diagonal slots, then one multiply-accumulate per stamp op.
//
//dmmvet:hotpath
func (p *stampPlan) assemble(vals []float64, shift float64, g la.Vector) {
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

// Pattern returns a zero-valued matrix with the voltage system's sparsity
// pattern (the CSR Build compiled and factored symbolically). The index
// arrays are shared and must not be written; the value array is private.
func (c *Circuit) Pattern() *la.CSR { return c.plan.valCSR() }

// FactorNNZ reports the nonzeros of the symbolic L+U factors (pattern
// fill under the chosen ordering; observability for benchmarks).
func (c *Circuit) FactorNNZ() int { return c.symb.NNZFactors() }
