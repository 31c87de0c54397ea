package circuit

import (
	"math/rand"

	"repro/internal/la"
)

// Engine is the common surface of the two dynamical forms of a compiled
// SOLC: the capacitive form (*Circuit, node voltages as states) and the
// order-reduced quasi-static form (*QuasiStatic). Both satisfy ode.System.
type Engine interface {
	Dim() int
	Derivative(t float64, x, dxdt la.Vector)
	InitialState(rng *rand.Rand) la.Vector
	ClampState(x la.Vector)
	NodeVoltages(t float64, x, dst la.Vector) la.Vector
	GatesSatisfied(t float64, x la.Vector) bool
	Converged(t float64, x la.Vector, tol float64) bool
	// VerifyState checks the runtime invariants (internal/invariant) on a
	// post-clamp state, returning an *invariant.Violation naming device,
	// index and step when a bound is blown.
	VerifyState(t float64, step int, x la.Vector) error
	Parameters() Params
	NumGates() int
	Counts() (freeNodes, memristors, vcdcgs int)
	// MemStates returns the memristor internal-state block of x as a
	// view (no copy): nm values in [0,1]. The physics probe histograms
	// it on a decimated cadence.
	MemStates(x la.Vector) la.Vector
	// Clone returns an engine over the same compiled circuit with private
	// scratch buffers, safe to integrate concurrently with the receiver.
	Clone() Engine
}

// Clone shares the compiled topology (gates, branch sets, pins, stamp
// plan, symbolic factorization — all read-only during integration) and
// reallocates only the evaluation scratch, so concurrent attempts never
// write a common la.Vector.
func (c *Circuit) Clone() Engine {
	cp := *c
	cp.nodeV = la.NewVector(c.numNodes)
	cp.curr = la.NewVector(c.numNodes)
	return &cp
}

// Clone duplicates the engine with a private Kirchhoff solve workspace and
// an empty factorization cache; the stamp plan and symbolic analysis stay
// shared through the cloned *Circuit.
func (q *QuasiStatic) Clone() Engine {
	cq := *q
	cq.C = q.C.Clone().(*Circuit)
	nBranch := q.C.memBr.len() + q.C.resBr.len()
	cq.g = la.NewVector(nBranch)
	cq.rhs = la.NewVector(q.C.nv)
	cq.vSol = la.NewVector(q.C.nv)
	cq.nodeV = la.NewVector(q.C.numNodes)
	cq.f = voltageFactor{}
	cq.Refacts = 0
	return &cq
}

// Parameters returns the electrical parameters (Engine interface).
func (c *Circuit) Parameters() Params { return c.Params }

// Parameters returns the electrical parameters (Engine interface).
func (q *QuasiStatic) Parameters() Params { return q.C.Params }

var (
	_ Engine = (*Circuit)(nil)
	_ Engine = (*QuasiStatic)(nil)
)
