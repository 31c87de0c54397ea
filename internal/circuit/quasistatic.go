package circuit

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/la"
	"repro/internal/memristor"
)

// QuasiStatic is the order-reduced form of the SOLC dynamics: the node
// voltages are eliminated algebraically (the C → 0 limit of the parasitic
// capacitance, matching the paper's Table II value C = 1e-9 and its
// modified-nodal-analysis order reduction, Sec. VI-A) and the ODE state is
// only
//
//	[ x (memristor states) | i (VCDCG currents) | s (VCDCG bistables) ] .
//
// At every right-hand-side evaluation the linear Kirchhoff system
// A(x)·v = b(x, i, t) is solved for the free-node voltages; A depends only
// on the memristor conductances, so its factorization is cached and
// refreshed when any conductance drifts beyond a relative threshold. The
// solve shares the capacitive engine's stamp plan and one-time symbolic
// factorization (internal/circuit/stamp.go) with the tiny g_leak diagonal
// shift in place of C/h, and the same refactor decision (voltageFactor).
type QuasiStatic struct {
	C *Circuit

	// gLeak is a tiny node-to-ground conductance guaranteeing A is
	// nonsingular for any memristor state.
	gLeak float64

	// RefactorTol is the relative conductance drift above which the cached
	// factorization is refreshed. Zero means refactor on every
	// evaluation: exact voltages, no derivative discontinuities (the
	// adaptive error estimator otherwise rejects steps across cache
	// boundaries). Nonzero values trade accuracy for speed on large
	// circuits.
	RefactorTol float64

	// f is the cached factorization of g_leak·I + A(g).
	f       voltageFactor
	g       la.Vector // per-branch conductances in plan order [mem | resistor]
	rhs     la.Vector
	vSol    la.Vector
	nodeV   la.Vector
	Refacts int // factorization count (observability)
}

// BuildQS compiles the builder's contents into the quasi-static engine.
func (b *Builder) BuildQS() *QuasiStatic {
	c := b.Build()
	q := &QuasiStatic{
		C:     c,
		gLeak: 1e-9,
		g:     la.NewVector(c.memBr.len() + c.resBr.len()),
		rhs:   la.NewVector(c.nv),
		vSol:  la.NewVector(c.nv),
		nodeV: la.NewVector(c.numNodes),
	}
	return q
}

// Dim returns the reduced state dimension.
func (q *QuasiStatic) Dim() int { return q.C.nm + 2*q.C.nd }

// NumGates returns the gate count.
func (q *QuasiStatic) NumGates() int { return q.C.NumGates() }

// Counts reports (free nodes, memristors, VCDCGs).
func (q *QuasiStatic) Counts() (int, int, int) { return q.C.Counts() }

// MemStates returns the memristor internal-state block of x as a view
// (Engine interface).
func (q *QuasiStatic) MemStates(x la.Vector) la.Vector {
	return x[q.xOff() : q.xOff()+q.C.nm]
}

// Reduced-state block offsets.
func (q *QuasiStatic) xOff() int { return 0 }
func (q *QuasiStatic) iOff() int { return q.C.nm }
func (q *QuasiStatic) sOff() int { return q.C.nm + q.C.nd }

// solveVoltages computes the free-node voltages for the given reduced
// state, writing the full node-voltage vector into q.nodeV.
func (q *QuasiStatic) solveVoltages(t float64, x la.Vector) error {
	c := q.C
	// Current conductances (memristor branches from state, resistors 1/R).
	c.fillConductances(q.g, x, q.xOff())
	// Decide whether the cached factorization is still valid.
	refactor := q.f.stale(q.g[:c.nm], q.RefactorTol)
	// Pinned node voltages at time t.
	for n := 0; n < c.numNodes; n++ {
		q.nodeV[n] = 0
	}
	for _, pn := range c.pins {
		q.nodeV[pn.node] = pn.src.V(t)
	}
	if refactor {
		if err := q.f.refactor(c, nil, q.gLeak, q.g); err != nil {
			return fmt.Errorf("circuit: quasi-static KCL system singular: %w", err)
		}
		q.Refacts++
	}
	// Right-hand side: branch VCVG couplings through pinned terminals plus
	// DC terms, then the VCDCG currents leaving their nodes.
	q.rhs.Zero()
	c.plan.assembleRHS(q.rhs, q.g, q.nodeV)
	for k, node := range c.dcgNodes {
		if fi := c.freeIdx[node]; fi >= 0 {
			q.rhs[fi] -= x[q.iOff()+k]
		}
	}
	q.f.slu.SolveInto(q.vSol, q.rhs)
	for n := 0; n < c.numNodes; n++ {
		if fi := c.freeIdx[n]; fi >= 0 {
			q.nodeV[n] = q.vSol[fi]
		}
	}
	return nil
}

// Derivative implements ode.System for the reduced state.
func (q *QuasiStatic) Derivative(t float64, x, dxdt la.Vector) {
	c := q.C
	p := &c.Params
	if err := q.solveVoltages(t, x); err != nil {
		// Poison the derivative so the driver rejects the step.
		dxdt.Fill(math.NaN())
		return
	}
	nodeV := q.nodeV
	mb := &c.memBr
	for j := 0; j < mb.len(); j++ {
		d := nodeV[mb.node[j]] - mb.level(j, nodeV)
		xi := memristor.Clamp(x[q.xOff()+j])
		dxdt[q.xOff()+j] = p.Mem.DxDt(xi, mb.sigma[j]*d)
	}
	offset := p.DCG.FsOffset(x[q.iOff() : q.iOff()+c.nd])
	for k, node := range c.dcgNodes {
		i := x[q.iOff()+k]
		s := x[q.sOff()+k]
		dxdt[q.iOff()+k] = p.DCG.DiDt(nodeV[node], i, s)
		dxdt[q.sOff()+k] = p.DCG.Fs(s, offset)
	}
}

// NodeVoltages solves for and returns the node voltages at (t, x). dst may
// be nil.
func (q *QuasiStatic) NodeVoltages(t float64, x la.Vector, dst la.Vector) la.Vector {
	if dst == nil {
		dst = la.NewVector(q.C.numNodes)
	}
	if err := q.solveVoltages(t, x); err != nil {
		dst.Fill(math.NaN())
		return dst
	}
	dst.CopyFrom(q.nodeV)
	return dst
}

// ClampState enforces the invariant regions on the reduced state.
func (q *QuasiStatic) ClampState(x la.Vector) {
	for m := 0; m < q.C.nm; m++ {
		x[q.xOff()+m] = memristor.Clamp(x[q.xOff()+m])
	}
	iBound := q.C.Params.DCG.IMax * 1.5
	for k := 0; k < q.C.nd; k++ {
		if v := x[q.iOff()+k]; v > iBound {
			x[q.iOff()+k] = iBound
		} else if v < -iBound {
			x[q.iOff()+k] = -iBound
		}
	}
}

// InitialState mirrors Circuit.InitialState for the reduced state.
func (q *QuasiStatic) InitialState(rng *rand.Rand) la.Vector {
	x := la.NewVector(q.Dim())
	for m := 0; m < q.C.nm; m++ {
		x[q.xOff()+m] = rng.Float64()
	}
	for k := 0; k < q.C.nd; k++ {
		x[q.sOff()+k] = 1
	}
	return x
}

// GatesSatisfied decodes node voltages and checks every gate relation.
// It reads the voltages in place in the engine's solve scratch, so the
// per-step stop check allocates nothing.
func (q *QuasiStatic) GatesSatisfied(t float64, x la.Vector) bool {
	return q.C.gatesSatisfiedAt(q.NodeVoltages(t, x, q.nodeV))
}

// Converged reports whether the state is a decoded logic equilibrium.
func (q *QuasiStatic) Converged(t float64, x la.Vector, tol float64) bool {
	nodeV := q.NodeVoltages(t, x, q.nodeV)
	vc := q.C.Params.Vc
	for n := 0; n < q.C.numNodes; n++ {
		d := math.Abs(nodeV[n])
		if d < (1-tol)*vc || d > (1+tol)*vc {
			return false
		}
	}
	return q.C.gatesSatisfiedAt(nodeV)
}

// String summarizes the engine.
func (q *QuasiStatic) String() string {
	return fmt.Sprintf("QS-%s", q.C.String())
}
