package circuit

import (
	"math"

	"repro/internal/la"
)

// Physics-probe constants: the memristor-state histogram resolution over
// [0,1] and the relative tolerance for calling a node voltage saturated
// at ±vc.
const (
	MemHistBuckets = 10
	SatTol         = 0.05
)

// PhysicsSample is one decimated observation of the circuit's physical
// state: the paper's dynamical observables (saturation toward the ±vc
// logic rails, memristor-state occupation, max |dv/dt| as a
// distance-to-equilibrium proxy) evaluated at a single (t, x).
type PhysicsSample struct {
	T float64
	// SaturatedFrac is the fraction of node voltages within SatTol·vc
	// of ±vc — at a self-organized equilibrium it reaches 1.
	SaturatedFrac float64
	// MaxDvDt is max |dv/dt| over the voltage states.
	MaxDvDt float64
	// MaxDxDt is max |dx/dt| over the full ODE state.
	MaxDxDt float64
	// MemHist counts memristor internal states per uniform bucket of
	// [0,1] (bucket j covers [j/MemHistBuckets, (j+1)/MemHistBuckets)).
	MemHist [MemHistBuckets]int32
}

// PhysicsProbe samples physics observables from a circuit's state with
// private scratch, so each portfolio attempt probes its own cloned
// circuit without contention. Sample allocates nothing.
type PhysicsProbe struct {
	c     *Circuit
	nodeV la.Vector
	dxdt  la.Vector
}

// NewPhysicsProbe returns a probe over c with preallocated scratch.
func NewPhysicsProbe(c *Circuit) *PhysicsProbe {
	return &PhysicsProbe{c: c, nodeV: la.NewVector(c.numNodes), dxdt: la.NewVector(c.Dim())}
}

// Sample evaluates the physics observables at (t, x).
func (p *PhysicsProbe) Sample(t float64, x la.Vector) PhysicsSample {
	s := PhysicsSample{T: t}
	vc := p.c.Params.Vc

	nodeV := p.c.NodeVoltages(t, x, p.nodeV)
	sat := 0
	for _, v := range nodeV {
		if math.Abs(math.Abs(v)-vc) <= SatTol*vc {
			sat++
		}
	}
	if len(nodeV) > 0 {
		s.SaturatedFrac = float64(sat) / float64(len(nodeV))
	}

	p.c.Derivative(t, x, p.dxdt)
	s.MaxDxDt = p.dxdt.NormInf()
	s.MaxDvDt = p.dxdt[:p.c.nv].NormInf()

	for _, xi := range p.c.MemStates(x) {
		j := int(xi * MemHistBuckets)
		if j < 0 {
			j = 0
		} else if j >= MemHistBuckets {
			j = MemHistBuckets - 1
		}
		s.MemHist[j]++
	}
	return s
}
