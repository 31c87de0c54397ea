package circuit

import (
	"hash/fnv"
	"math"

	"repro/internal/la"
)

// CompileDigest summarizes everything Build compiles into one circuit: a
// hash of the branch sets and the stamp-plan arrays (in order), the
// stored nonzeros of the operator and of its L+U factors, and a hash of
// the bits of one assemble + refactor + solve at fixed, position-dependent
// conductances, diagonal shift, node voltages and right-hand side. The
// solve bits depend on the symbolic ordering and factor structure as well
// as on the plan, so a compile-path change that moves any of them moves
// the digest.
func (c *Circuit) CompileDigest() (planHash uint64, nnz, factorNNZ int, solveHash uint64) {
	h := fnv.New64a()
	var buf [8]byte
	word := func(u uint64) {
		for k := range buf {
			buf[k] = byte(u >> (8 * k))
		}
		h.Write(buf[:])
	}
	ints := func(xs []int) {
		word(uint64(len(xs)))
		for _, x := range xs {
			word(uint64(x))
		}
	}
	int32s := func(xs []int32) {
		word(uint64(len(xs)))
		for _, x := range xs {
			word(uint64(x))
		}
	}
	floats := func(xs []float64) {
		word(uint64(len(xs)))
		for _, x := range xs {
			word(math.Float64bits(x))
		}
	}
	for _, s := range []*branchSet{&c.memBr, &c.resBr} {
		int32s(s.node)
		int32s(s.fi)
		int32s(s.i1)
		int32s(s.i2)
		int32s(s.io)
		floats(s.a1)
		floats(s.a2)
		floats(s.ao)
		floats(s.dc)
		floats(s.sigma)
	}
	p := c.plan
	word(uint64(p.csr.Rows))
	word(uint64(p.csr.Cols))
	ints(p.csr.RowPtr)
	ints(p.csr.ColIdx)
	floats(p.csr.Val)
	int32s(p.diag)
	int32s(p.mIdx)
	int32s(p.mBr)
	floats(p.mCoef)
	int32s(p.rFi)
	int32s(p.rBr)
	int32s(p.rNode)
	floats(p.rCoef)
	int32s(p.dFi)
	int32s(p.dBr)
	floats(p.dDC)
	planHash = h.Sum64()

	g := la.NewVector(c.nm + c.resBr.len())
	for k := range g {
		g[k] = 1e-3 * float64(1+k%7)
	}
	nodeV := la.NewVector(c.numNodes)
	for k := range nodeV {
		nodeV[k] = math.Sin(float64(k + 1))
	}
	a := p.valCSR()
	p.assemble(a.Val, 2.5, g)
	lu, err := c.symb.CloneFor(a)
	if err != nil {
		panic(err)
	}
	if err := lu.Refactor(); err != nil {
		panic(err)
	}
	rhs := la.NewVector(c.nv)
	for k := range rhs {
		rhs[k] = math.Cos(float64(k + 1))
	}
	p.assembleRHS(rhs, g, nodeV)
	lu.SolveInto(rhs, rhs)
	h.Reset()
	floats(a.Val)
	floats(rhs)
	_, nnz = c.NNZ()
	return planHash, nnz, c.FactorNNZ(), h.Sum64()
}
