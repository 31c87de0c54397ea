package circuit

import (
	"hash/fnv"
	"math"

	"repro/internal/la"
)

// CompileDigest summarizes everything Build compiles into one circuit: a
// hash of the DCM branches and the stamp-plan arrays (in order), the
// stored nonzeros of the operator and of its L+U factors, and a hash of
// the bits of one assemble + refactor + solve at fixed, position-dependent
// memristor conductances (resistors at 1/R), diagonal shift, node voltages
// and right-hand side (the branch terms added to a fixed vector). The solve bits depend on the symbolic ordering and
// factor structure as well as on the plan, so a compile-path change that
// moves any of them moves the digest.
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
	// The DCM rows, expanded per branch: the memristors in state order,
	// then the resistors, each as the columns node, freeIdx[node], the
	// (v1, v2, vo) slot nodes, a1, a2, ao, dc and, for the memristors,
	// σ.
	for res := 0; res < 2; res++ {
		var cols [5][]int32
		var coefs [5][]float64
		for gi := range c.gates {
			inst := &c.gates[gi]
			for _, r := range inst.kindRows(res == 1) {
				node := inst.nodes[r.slot]
				for k, x := range [5]int32{node, int32(c.freeIdx[node]), inst.nodes[0], inst.nodes[1], inst.nodes[2]} {
					cols[k] = append(cols[k], x)
				}
				for k, x := range [5]float64{r.a1, r.a2, r.ao, r.dc, r.sigma} {
					coefs[k] = append(coefs[k], x)
				}
			}
		}
		if res == 1 {
			coefs[4] = nil // a resistor has no polarity
		}
		for _, col := range cols {
			int32s(col)
		}
		for _, col := range coefs {
			floats(col)
		}
	}
	p := c.plan
	word(uint64(p.csr.Rows))
	word(uint64(p.csr.Cols))
	ints(p.csr.RowPtr)
	ints(p.csr.ColIdx)
	floats(p.csr.Val)
	for _, t := range []*terms{&p.a, &p.b} {
		int32s(t.ptr)
		int32s(t.br)
		int32s(t.node)
		floats(t.coef)
	}
	planHash = h.Sum64()

	// The memristors take fixed, position-dependent conductances; the
	// plan holds the resistors' 1/R.
	g := la.NewVector(c.nm + 2)
	for k := range g[:c.nm] {
		g[k] = 1e-3 * float64(1+k%7)
	}
	g[c.gUnit()], g[c.gShift()] = 1, 2.5
	nodeV := la.NewVector(c.numNodes + 1)
	for k := range nodeV[:c.numNodes] {
		nodeV[k] = math.Sin(float64(k + 1))
	}
	nodeV[c.vUnit()] = 1
	a := p.valCSR()
	p.assemble(a.Val, g)
	lu, err := c.symb.CloneFor(a)
	if err != nil {
		panic(err)
	}
	if err := lu.Refactor(); err != nil {
		panic(err)
	}
	rhs := la.NewVector(c.nv)
	for f := range rhs {
		rhs[f] = p.b.row(f, math.Cos(float64(f+1)), g, nodeV)
	}
	lu.SolveInto(rhs, rhs)
	h.Reset()
	floats(a.Val)
	floats(rhs)
	_, nnz = c.NNZ()
	return planHash, nnz, c.FactorNNZ(), h.Sum64()
}
