package circuit

import "repro/internal/la"

// Engine is the surface of a compiled SOLC that callers read through
// solc.Compiled.Eng: its size. Its one implementation is the capacitive
// form (*Circuit, node voltages as states), which the solver drives
// directly.
type Engine interface {
	Dim() int
	NumGates() int
	Counts() (freeNodes, memristors, vcdcgs int)
}

// Clone returns a circuit over the same compiled topology (gates and
// their DCM rows, pins, stamp plan, symbolic factorization — all
// read-only during integration) with private scratch buffers, so concurrent attempts never
// write a common la.Vector.
func (c *Circuit) Clone() *Circuit {
	cp := *c
	cp.nodeV = la.NewVector(c.numNodes)
	cp.curr = la.NewVector(c.numNodes)
	return &cp
}

var _ Engine = (*Circuit)(nil)
