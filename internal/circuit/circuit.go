package circuit

import (
	"fmt"
	"math/rand"

	"repro/internal/device"
	"repro/internal/la"
	"repro/internal/memristor"
)

// Circuit is a compiled self-organizing logic circuit exposing the global
// ODE ẋ = F(t, x) with state layout
//
//	[ v (free-node voltages) | x (memristor states) | i (VCDCG currents) | s (VCDCG bistables) ] .
type Circuit struct {
	Params Params

	numNodes int
	gates    []gateInst
	pins     []pin
	pinned   []bool // per node
	freeIdx  []int  // node -> free-voltage state index, -1 when pinned

	// DCM branches in structure-of-arrays form, split by kind; the j-th
	// memristor branch owns state x[xOff+j].
	memBr branchSet
	resBr branchSet

	dcgNodes []int // VCDCG k -> node

	nv, nm, nd int // free nodes, memristors, VCDCGs

	// plan is the Build-time stamp plan of the voltage system and symb its
	// one-time symbolic factorization; both are immutable and shared by
	// every engine instance over this circuit (see internal/circuit/stamp.go).
	plan *stampPlan
	symb *la.SparseLU

	// scratch buffers (Derivative is called on one goroutine at a time).
	nodeV la.Vector
	curr  la.Vector
}

type pin struct {
	node int
	src  device.RampSource
}

// Build compiles the builder's contents. Every non-pinned node receives a
// VCDCG (Sec. V-D: "at each terminal but the ones at which we send the
// inputs, we connect a VCDCG").
func (b *Builder) Build() *Circuit {
	c := &Circuit{
		Params:   b.params,
		numNodes: b.numNodes,
		gates:    b.gates,
		pinned:   make([]bool, b.numNodes),
		freeIdx:  make([]int, b.numNodes),
		pins:     make([]pin, 0, len(b.pins)),
	}
	for n, src := range b.pins {
		//dmmvet:allow detflow — collection order is discarded: the insertion sort below reorders pins by node index
		c.pins = append(c.pins, pin{node: int(n), src: src})
		c.pinned[n] = true
	}
	// Deterministic pin order (map iteration is random).
	for i := 1; i < len(c.pins); i++ {
		for j := i; j > 0 && c.pins[j-1].node > c.pins[j].node; j-- {
			c.pins[j-1], c.pins[j] = c.pins[j], c.pins[j-1]
		}
	}
	if !b.params.OmitVCDCG {
		c.dcgNodes = make([]int, 0, b.numNodes-len(c.pins))
	}
	for n := 0; n < b.numNodes; n++ {
		if c.pinned[n] {
			c.freeIdx[n] = -1
			continue
		}
		c.freeIdx[n] = c.nv
		c.nv++
		if !b.params.OmitVCDCG {
			c.dcgNodes = append(c.dcgNodes, n)
		}
	}
	c.nd = len(c.dcgNodes)
	var nMem, nRes int
	for _, inst := range b.gates {
		for t := range inst.nodes {
			for _, br := range inst.gate.DCMs[t].Branches {
				if br.Mem {
					nMem++
				} else {
					nRes++
				}
			}
		}
	}
	c.memBr, c.resBr = newBranchSet(nMem, true), newBranchSet(nRes, false)
	for _, inst := range b.gates {
		var slots [3]int32
		if len(inst.nodes) == 2 {
			slots = [3]int32{int32(inst.nodes[0]), -1, int32(inst.nodes[1])}
		} else {
			slots = [3]int32{int32(inst.nodes[0]), int32(inst.nodes[1]), int32(inst.nodes[2])}
		}
		for t, node := range inst.nodes {
			for _, br := range inst.gate.DCMs[t].Branches {
				set := &c.resBr
				if br.Mem {
					set = &c.memBr
					c.nm++
				}
				set.add(int(node), c.freeIdx[node], slots, br.L, br.Sigma, br.Mem)
			}
		}
	}
	c.plan = c.buildPlan()
	var err error
	if c.symb, err = la.NewSparseLU(c.plan.csr); err != nil {
		// The shift diagonal makes the pattern structurally nonsingular;
		// reaching this indicates a stamp-plan bug, not a user error.
		panic(fmt.Sprintf("circuit: symbolic factorization failed: %v", err))
	}
	c.nodeV = la.NewVector(c.numNodes)
	c.curr = la.NewVector(c.numNodes)
	return c
}

// fillConductances writes the per-branch conductance buffer in plan order:
// g[0:nm] the memristor branches evaluated at the clamped states of x,
// g[nm:] the resistor branches at 1/R.
//
//dmmvet:hotpath
func (c *Circuit) fillConductances(g la.Vector, x la.Vector) {
	p := &c.Params
	xOff := c.xOff()
	for m := 0; m < c.nm; m++ {
		g[m] = p.Mem.G(memristor.Clamp(x[xOff+m]))
	}
	invR := 1 / p.R
	for j := c.nm; j < len(g); j++ {
		g[j] = invR
	}
}

// Dim returns the ODE state dimension.
func (c *Circuit) Dim() int { return c.nv + c.nm + 2*c.nd }

// Counts reports the component totals (free nodes, memristors, VCDCGs).
func (c *Circuit) Counts() (freeNodes, memristors, vcdcgs int) {
	return c.nv, c.nm, c.nd
}

// NumGates returns the number of self-organizing gates.
func (c *Circuit) NumGates() int { return len(c.gates) }

// MemStates returns the memristor internal-state block of x as a view
// (no copy): nm values in [0,1]. The physics probe histograms it on a
// decimated cadence.
func (c *Circuit) MemStates(x la.Vector) la.Vector {
	return x[c.xOff() : c.xOff()+c.nm]
}

// State block offsets.
func (c *Circuit) vOff() int { return 0 }
func (c *Circuit) xOff() int { return c.nv }
func (c *Circuit) iOff() int { return c.nv + c.nm }
func (c *Circuit) sOff() int { return c.nv + c.nm + c.nd }

// terminalVoltages fills the (v1, v2, vo) slots of gate instance gi from
// the node voltage vector; the unused v2 slot of a NOT gate reads 0.
func (c *Circuit) terminalVoltages(gi int, nodeV la.Vector) (v1, v2, vo float64) {
	inst := c.gates[gi]
	if len(inst.nodes) == 2 {
		return nodeV[inst.nodes[0]], 0, nodeV[inst.nodes[1]]
	}
	return nodeV[inst.nodes[0]], nodeV[inst.nodes[1]], nodeV[inst.nodes[2]]
}

// NodeVoltages evaluates all node voltages at time t for state x, writing
// into dst (length numNodes) and returning it. dst may be nil.
func (c *Circuit) NodeVoltages(t float64, x la.Vector, dst la.Vector) la.Vector {
	if dst == nil {
		dst = la.NewVector(c.numNodes)
	}
	for n := 0; n < c.numNodes; n++ {
		if fi := c.freeIdx[n]; fi >= 0 {
			dst[n] = x[c.vOff()+fi]
		}
	}
	for _, p := range c.pins {
		dst[p.node] = p.src.V(t)
	}
	return dst
}

// Derivative implements ode.System.
func (c *Circuit) Derivative(t float64, x, dxdt la.Vector) {
	p := &c.Params
	nodeV := c.NodeVoltages(t, x, c.nodeV)
	curr := c.curr
	curr.Zero()

	xOff, iOff, sOff := c.xOff(), c.iOff(), c.sOff()

	// DCM branches: currents into nodes plus memristor state equations.
	// The sets are walked separately so each loop body is branch-free.
	mb := &c.memBr
	for j := 0; j < mb.len(); j++ {
		d := nodeV[mb.node[j]] - mb.level(j, nodeV)
		xi := memristor.Clamp(x[xOff+j])
		g := p.Mem.G(xi)
		curr[mb.node[j]] += float64(g * d)
		dxdt[xOff+j] = p.Mem.DxDt(xi, mb.sigma[j]*d)
	}
	rb := &c.resBr
	invR := 1 / p.R
	for j := 0; j < rb.len(); j++ {
		d := nodeV[rb.node[j]] - rb.level(j, nodeV)
		curr[rb.node[j]] += float64(d * invR)
	}

	// VCDCGs: current balance plus (i, s) dynamics. The f_s offset couples
	// every generator through the global current-window products (Eq. 47).
	offset := p.DCG.FsOffset(x[iOff : iOff+c.nd])
	for k, node := range c.dcgNodes {
		i := x[iOff+k]
		s := x[sOff+k]
		curr[node] += i
		dxdt[iOff+k] = p.DCG.DiDt(nodeV[node], i, s)
		dxdt[sOff+k] = p.DCG.Fs(s, offset)
	}

	// Node voltages: C dv/dt = -(net out-current).
	for n := 0; n < c.numNodes; n++ {
		if fi := c.freeIdx[n]; fi >= 0 {
			dxdt[c.vOff()+fi] = -curr[n] / p.C
		}
	}
}

// ClampState enforces the invariant regions of Props. VI.2 and VI.5 after
// an integration step: memristor states to [0,1] and VCDCG currents to
// [-imax·(1+ε), imax·(1+ε)] (the dynamics keep them there up to one step of
// overshoot).
func (c *Circuit) ClampState(x la.Vector) {
	xOff, iOff := c.xOff(), c.iOff()
	for m := 0; m < c.nm; m++ {
		x[xOff+m] = memristor.Clamp(x[xOff+m])
	}
	iBound := c.Params.DCG.IMax * 1.5
	for k := 0; k < c.nd; k++ {
		if v := x[iOff+k]; v > iBound {
			x[iOff+k] = iBound
		} else if v < -iBound {
			x[iOff+k] = -iBound
		}
	}
}

// InitialState returns a start state per Sec. VII: memristor states
// uniform-random in [0,1], node voltages at small random values, VCDCG
// currents zero, bistables in the drive region (s = 1).
func (c *Circuit) InitialState(rng *rand.Rand) la.Vector {
	x := la.NewVector(c.Dim())
	c.InitialStateInto(rng, x)
	return x
}

// InitialStateInto overwrites every entry of x (length Dim) with the
// start state InitialState would return for the same rng, so a reused
// state vector starts a trajectory exactly where a fresh one would.
func (c *Circuit) InitialStateInto(rng *rand.Rand, x la.Vector) {
	for f := 0; f < c.nv; f++ {
		x[c.vOff()+f] = 0.02 * c.Params.Vc * (float64(2*rng.Float64()) - 1)
	}
	for m := 0; m < c.nm; m++ {
		x[c.xOff()+m] = rng.Float64()
	}
	for k := 0; k < c.nd; k++ {
		x[c.iOff()+k] = 0
		x[c.sOff()+k] = 1
	}
}

// NodeBit decodes a node voltage into a logic value (v > 0 ↔ 1).
func (c *Circuit) NodeBit(t float64, x la.Vector, n Node) bool {
	return c.NodeVoltages(t, x, c.nodeV)[n] > 0
}

// GatesSatisfied reports whether every gate's decoded terminal bits
// satisfy its boolean relation.
func (c *Circuit) GatesSatisfied(t float64, x la.Vector) bool {
	nodeV := c.NodeVoltages(t, x, c.nodeV)
	var in [2]bool
	for _, inst := range c.gates {
		nt := len(inst.nodes)
		for j := 0; j < nt-1; j++ {
			in[j] = nodeV[inst.nodes[j]] > 0
		}
		if inst.gate.Kind.Eval(in[:nt-1]...) != (nodeV[inst.nodes[nt-1]] > 0) {
			return false
		}
	}
	return true
}

// Converged reports whether the state is a decoded logic equilibrium:
// every node voltage within tol·vc of ±vc and every gate satisfied.
func (c *Circuit) Converged(t float64, x la.Vector, tol float64) bool {
	nodeV := c.NodeVoltages(t, x, c.nodeV)
	vc := c.Params.Vc
	for n := 0; n < c.numNodes; n++ {
		d := nodeV[n]
		if d < 0 {
			d = -d
		}
		if d < (1-tol)*vc || d > (1+tol)*vc {
			return false
		}
	}
	return c.GatesSatisfied(t, x)
}

// String summarizes the circuit.
func (c *Circuit) String() string {
	return fmt.Sprintf("SOLC{nodes=%d gates=%d mem=%d vcdcg=%d pinned=%d dim=%d}",
		c.numNodes, len(c.gates), c.nm, c.nd, len(c.pins), c.Dim())
}
