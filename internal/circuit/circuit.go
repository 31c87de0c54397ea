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

	// freeNode maps a free index to its node. The VCDCGs sit on the free
	// nodes in that order, so dcgNodes (VCDCG k -> node) is freeNode, or
	// nil under OmitVCDCG, and VCDCG k drives free row k.
	freeNode []int
	dcgNodes []int

	// nm counts the memristor rows of every gate in gate order; the j-th
	// owns state x[xOff+j]. nr counts the resistor rows.
	nv, nm, nr, nd int // free nodes, memristors, resistors, VCDCGs

	// plan is the Build-time stamp plan of the voltage system and symb its
	// one-time symbolic factorization; both are immutable and shared by
	// every engine instance over this circuit (see internal/circuit/stamp.go).
	// symb is a template with no numeric arrays: each stepper factors a
	// CloneFor of it that owns its own.
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
	c.freeNode = make([]int, 0, b.numNodes-len(c.pins))
	for n := 0; n < b.numNodes; n++ {
		if c.pinned[n] {
			c.freeIdx[n] = -1
			continue
		}
		c.freeIdx[n] = c.nv
		c.nv++
		c.freeNode = append(c.freeNode, n)
	}
	if !b.params.OmitVCDCG {
		c.dcgNodes = c.freeNode
	}
	c.nd = len(c.dcgNodes)
	for _, inst := range c.gates {
		c.nm += len(inst.rows.mem)
		c.nr += len(inst.rows.res)
	}
	c.plan = c.buildPlan()
	var err error
	if c.symb, err = la.NewSymbolicLU(c.plan.csr); err != nil {
		// The shift stores every diagonal entry, NewSymbolicLU's one
		// precondition; reaching this indicates a stamp-plan bug, not a
		// user error.
		panic(fmt.Sprintf("circuit: symbolic factorization failed: %v", err))
	}
	c.nodeV = la.NewVector(c.numNodes)
	c.curr = la.NewVector(c.numNodes)
	return c
}

// fillConductances writes the memristor conductances g[j] = G(x_j) of
// the states of x, which the step keeps in [0,1]; the resistor
// branches' 1/R is folded into the stamp plan.
//
//dmmvet:hotpath
func (c *Circuit) fillConductances(g la.Vector, x la.Vector) {
	m := c.Params.Mem
	for j, xj := range x[c.xOff() : c.xOff()+len(g)] {
		g[j] = m.G(xj)
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

// voltages returns the gate's (v1, v2, vo) slot voltages.
func (inst *gateInst) voltages(nodeV la.Vector) [3]float64 {
	return [3]float64{nodeV[inst.nodes[0]], nodeV[inst.nodes[1]], nodeV[inst.nodes[2]]}
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

// Derivative evaluates the right-hand side ẋ = F(t, x) of Eqs. (21)-(24)
// into dxdt; the physics probe reads it (the IMEX step does not).
func (c *Circuit) Derivative(t float64, x, dxdt la.Vector) {
	p := &c.Params
	nodeV := c.NodeVoltages(t, x, c.nodeV)
	curr := c.curr
	curr.Zero()

	xOff, iOff, sOff := c.xOff(), c.iOff(), c.sOff()

	// DCM branches: currents into nodes plus memristor state equations,
	// the memristor rows of every gate before the resistor rows.
	j := xOff
	for gi := range c.gates {
		inst := &c.gates[gi]
		v := inst.voltages(nodeV)
		for q := range inst.rows.mem {
			r := &inst.rows.mem[q]
			d := v[r.slot] - r.level(&v)
			xi := memristor.Clamp(x[j])
			g := p.Mem.G(xi)
			curr[inst.nodes[r.slot]] += float64(g * d)
			dxdt[j] = p.Mem.DxDt(xi, r.sigma*d)
			j++
		}
	}
	invR := 1 / p.R
	for gi := range c.gates {
		inst := &c.gates[gi]
		v := inst.voltages(nodeV)
		for q := range inst.rows.res {
			r := &inst.rows.res[q]
			d := v[r.slot] - r.level(&v)
			curr[inst.nodes[r.slot]] += float64(d * invR)
		}
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
	for _, inst := range c.gates {
		in := [2]bool{nodeV[inst.nodes[0]] > 0, nodeV[inst.nodes[1]] > 0}
		k := inst.gate.Kind
		if k.Eval(in[:k.Terminals()-1]...) != (nodeV[inst.nodes[2]] > 0) {
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
