package circuit

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/device"
	"repro/internal/la"
)

// refBranch is one DCM branch as the references read it, from its
// gate's solg parameter set rather than the circuit's DCM rows.
type refBranch struct {
	node  int32    // terminal node the branch hangs off
	slots [3]int32 // (v1, v2, vo) nodes; -1 for a NOT gate's missing v2
	L     device.VCVG
	sigma float64
}

// refBranches lists the DCM branches of c gate by gate, terminal by
// terminal, from each gate's solg.Gate: the memristor branches (state
// order), then the resistor branches. A gate's terminals are (in1, in2,
// out), or (in, out) for a NOT gate.
func (c *Circuit) refBranches() (mem, res []refBranch) {
	for _, inst := range c.gates {
		terms := []int32{inst.nodes[0], inst.nodes[1], inst.nodes[2]}
		slots := [3]int32{terms[0], terms[1], terms[2]}
		if len(inst.gate.DCMs) == 2 {
			terms = []int32{inst.nodes[0], inst.nodes[2]}
			slots[1] = -1
		}
		for t, dcm := range inst.gate.DCMs {
			for _, br := range dcm.Branches {
				rb := refBranch{node: terms[t], slots: slots, L: br.L, sigma: br.Sigma}
				if br.Mem {
					mem = append(mem, rb)
				} else {
					res = append(res, rb)
				}
			}
		}
	}
	return mem, res
}

// level evaluates the branch's VCVG from the node voltages; a missing
// slot contributes nothing.
func (b *refBranch) level(nodeV la.Vector) float64 {
	var v [3]float64
	l := b.L
	for k, n := range b.slots {
		if n >= 0 {
			v[k] = nodeV[n]
		}
	}
	if b.slots[1] < 0 {
		l.A2 = 0
	}
	return l.Eval(v[0], v[1], v[2])
}

// referenceStamp assembles shift·I + A and the right-hand side branch by
// branch, the way a stamp into zeroed arrays does: the shift on every
// diagonal; then, walking the memristor branches in state order and the
// resistor branches after them at g = 1/R, each free-row branch's
// g·1 on its diagonal and −g·coef per free VCVG slot; then the pinned-
// slot couplings g·coef·v of every branch, the DC terms g·dc of every
// branch, −i per VCDCG and shift·v. It reads only the gates' solg
// parameter sets (refBranches) and the CSR pattern, never the DCM rows
// or the plan's term lists.
func (c *Circuit) referenceStamp(gm []float64, shift float64, nodeV, v, i la.Vector) (vals, rhs []float64) {
	csr := c.plan.csr
	at := func(r, col int32) int {
		for e := csr.RowPtr[r]; e < csr.RowPtr[r+1]; e++ {
			if csr.ColIdx[e] == int(col) {
				return e
			}
		}
		panic(fmt.Sprintf("no pattern entry (%d,%d)", r, col))
	}
	vals = make([]float64, csr.NNZ())
	for f := int32(0); f < int32(c.nv); f++ {
		vals[at(f, f)] = shift
	}
	type rhsOp struct {
		fi, node int32
		g, coef  float64
	}
	var couplings, dcs []rhsOp
	invR := 1 / c.Params.R
	mem, res := c.refBranches()
	for s, set := range [][]refBranch{mem, res} {
		for j, br := range set {
			fi := int32(c.freeIdx[br.node])
			if fi < 0 {
				continue
			}
			g := invR
			if s == 0 {
				g = gm[j]
			}
			vals[at(fi, fi)] += float64(g * 1)
			for k, coef := range [3]float64{br.L.A1, br.L.A2, br.L.Ao} {
				sn := br.slots[k]
				if coef == 0 || sn < 0 {
					continue
				}
				if sf := c.freeIdx[sn]; sf >= 0 {
					vals[at(fi, int32(sf))] += float64(g * -coef)
				} else {
					couplings = append(couplings, rhsOp{fi, sn, g, coef})
				}
			}
			if dc := br.L.DC; dc != 0 {
				dcs = append(dcs, rhsOp{fi, 0, g, dc})
			}
		}
	}
	rhs = make([]float64, c.nv)
	for _, o := range couplings {
		rhs[o.fi] += float64(o.g * o.coef * nodeV[o.node])
	}
	for _, o := range dcs {
		rhs[o.fi] += float64(o.g * o.coef)
	}
	for k, node := range c.dcgNodes {
		rhs[c.freeIdx[node]] -= i[k]
	}
	for f := range rhs {
		rhs[f] += float64(shift * v[f])
	}
	return vals, rhs
}

// StampMismatch draws memristor conductances, a shift, node voltages,
// VCDCG currents and free voltages from rng, each spread over many
// binades so that a term added out of order shows in the low bits;
// assembles the voltage system through the stamp plan's kernels and
// through referenceStamp; and describes the first value whose bits
// differ, or returns "" when none does.
func (c *Circuit) StampMismatch(rng *rand.Rand) string {
	draw := func() float64 {
		return (2*rng.Float64() - 1) * math.Ldexp(1, rng.Intn(40)-20)
	}
	g := la.NewVector(c.nm + 2)
	for j := range g[:c.nm] {
		g[j] = math.Abs(draw())
	}
	shift := math.Abs(draw())
	g[c.gUnit()], g[c.gShift()] = 1, shift
	nodeV := la.NewVector(c.numNodes + 1)
	for n := range nodeV {
		nodeV[n] = draw()
	}
	nodeV[c.vUnit()] = 1
	v, i := la.NewVector(c.nv), la.NewVector(c.nd)
	for f := range v {
		v[f] = draw()
	}
	for k := range i {
		i[k] = draw()
	}

	wantVals, wantRHS := c.referenceStamp(g[:c.nm], shift, nodeV, v, i)
	vals := make([]float64, len(wantVals))
	c.plan.assemble(vals, g)
	rhs := la.NewVector(c.nv)
	c.plan.assembleRHS(rhs, g, nodeV, v, i, shift)
	for e, want := range wantVals {
		if math.Float64bits(vals[e]) != math.Float64bits(want) {
			return fmt.Sprintf("matrix entry %d: kernel %v (%#x), reference %v (%#x)",
				e, vals[e], math.Float64bits(vals[e]), want, math.Float64bits(want))
		}
	}
	for f, want := range wantRHS {
		if math.Float64bits(rhs[f]) != math.Float64bits(want) {
			return fmt.Sprintf("right-hand side row %d: kernel %v (%#x), reference %v (%#x)",
				f, rhs[f], math.Float64bits(rhs[f]), want, math.Float64bits(want))
		}
	}
	return ""
}
