package circuit

import (
	"math/rand"

	"repro/internal/la"
)

// Engine is the surface of a compiled SOLC that the solver drives. Its one
// implementation is the capacitive form (*Circuit, node voltages as
// states).
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

// Parameters returns the electrical parameters (Engine interface).
func (c *Circuit) Parameters() Params { return c.Params }

var _ Engine = (*Circuit)(nil)
