package circuit

import (
	"fmt"
	"math"

	"repro/internal/invariant"
	"repro/internal/la"
	"repro/internal/obs"
)

// IMEXStepper integrates the full capacitive state [v | x | i | s] with an
// implicit-explicit splitting: the node-voltage subsystem — linear in v for
// frozen memristor states, C·v̇ = b(x,i,t) − A(x)·v — takes a backward-Euler
// step by solving (C/h·I + A)·v' = C/h·v + b, while the slow states
// (x, i, s) step explicitly using the updated voltages.
//
// The C/h diagonal shift keeps the linear system well conditioned even
// where the DCM resistor branches present negative differential
// conductance (their solved VCVG levels depend on the terminal's own
// voltage; the paper's Table I shares this structure), which defeats both
// explicit integration (stiffness) and a pure algebraic voltage solve
// (ill-conditioning). Unconditional stability in v lets the step size
// track the slow physics, up to the explicit VCDCG current's own bound
// (MaxStableStep), which the driver grows h toward.
//
// The linear solve runs on the circuit's Build-time stamp plan and shared
// symbolic factorization (internal/circuit/stamp.go, la.SparseLU): each
// row of A couples a node only to the terminals sharing its gates, so the
// system is sparse and a numeric refactorization costs O(fill) instead of
// the dense O(nv³).
//
// IMEXStepper implements ode.Stepper on the one *Circuit it was built
// for.
type IMEXStepper struct {
	c *Circuit

	// Spans, when non-nil, receives the per-phase lap timings of Step.
	// The stepper laps around the self-timed SparseLU calls (Refactor,
	// SolveInto — wired onto its private clone in voltageFactor.refactor)
	// so no interval is ever charged to two phases.
	Spans *obs.Spans

	// f is the factor of (C/h·I + A), refactored every step: h grows
	// and the conductances move on every step of a ramped run.
	f voltageFactor

	g     la.Vector // per-branch conductances in plan order [mem | resistor]
	rhs   la.Vector
	nodeV la.Vector
	vNew  la.Vector
	drop  la.Vector // per-memristor branch drop d of the current step
	dcgV  la.Vector // per-VCDCG terminal voltage of the current step

	// energy accumulates the dissipated energy ∫ Σ_b g_b·d_b² dt over
	// every DCM branch b — memristors at g(x), resistors at 1/R (Sec.
	// VI-I's polynomial-energy accounting).
	energy float64
	// computed counts the steps Step has computed, rejected ones
	// included; each is one right-hand-side evaluation and one numeric
	// refactorization. It numbers the in-loop invariant reports.
	computed int
}

// Energy returns the dissipated energy accumulated since construction (or
// the last Reset).
func (s *IMEXStepper) Energy() float64 { return s.energy }

// Computed returns the number of steps computed since construction (or
// the last Reset), rejected ones included: the run's right-hand-side
// evaluations and refactorizations, one each per step. The accepted
// steps are the driver's count (ode.Result.Steps).
func (s *IMEXStepper) Computed() int { return s.computed }

// Reset zeroes the step count and the dissipation accumulator.
func (s *IMEXStepper) Reset() { s.computed, s.energy = 0, 0 }

// NewIMEX returns an IMEX stepper bound to c.
func NewIMEX(c *Circuit) *IMEXStepper {
	return &IMEXStepper{
		c:     c,
		g:     la.NewVector(c.memBr.len() + c.resBr.len()),
		rhs:   la.NewVector(c.nv),
		nodeV: la.NewVector(c.numNodes),
		vNew:  la.NewVector(c.nv),
		drop:  la.NewVector(c.memBr.len()),
		dcgV:  la.NewVector(c.nd),
	}
}

// stableStepFraction is the share of the explicit stability bound the
// driver grows h to: a margin below the bound, not on it. Fractions 0.5
// to 1.0 all verified every instance of the 4-bit factor suite at
// Default (`dmm-bench -exp hsweep` sweeps fixed steps across the bound).
const stableStepFraction = 0.7

// stableStep returns stableStepFraction of the explicit stability bound
// of the VCDCG current, min(2√(C/m1), 2/γ), or 0 when neither term is
// defined. The IMEX step solves v implicitly and then steps i explicitly
// from the new v. Near v = ±vc the pair C·v̇ ≈ −i, i̇ ≈ ρ(s)·m1·(v ∓ vc)
// is an LC tank with ω = √(ρ·m1/C), and semi-implicit Euler holds it
// only for h·ω < 2; ρ ≤ 1 makes 2√(C/m1) the worst case. The retreat
// term −γ·ρ(1−s)·i, stepped explicitly, adds h·γ < 2.
func (p Params) stableStep() float64 {
	b := math.Inf(1)
	if p.DCG.M1 > 0 {
		b = 2 * math.Sqrt(p.C/p.DCG.M1)
	}
	if p.DCG.Gamma > 0 {
		b = math.Min(b, 2/p.DCG.Gamma)
	}
	if math.IsInf(b, 1) {
		return 0
	}
	return stableStepFraction * b
}

// MaxStableStep returns the step-size ceiling of the explicit VCDCG
// update (Params.stableStep). A circuit without VCDCGs reports none and
// runs at the driver's fixed h.
func (s *IMEXStepper) MaxStableStep() float64 {
	if s.c.nd == 0 {
		return 0
	}
	return s.c.Params.stableStep()
}

// Step advances the circuit state by h. It is the innermost loop of
// every solve and must not allocate on the steady path (the
// TestIMEXStepTelemetryZeroAlloc budget); hotalloc enforces that
// statically from this root.
//
//dmmvet:hotpath
func (s *IMEXStepper) Step(t, h float64, x la.Vector) error {
	c := s.c
	p := &c.Params
	tok := s.Spans.Begin()

	// Conductances for the current memristor states.
	c.fillConductances(s.g, x)

	// Node voltages at time t+h for pinned nodes; free from state.
	for n := 0; n < c.numNodes; n++ {
		if fi := c.freeIdx[n]; fi >= 0 {
			s.nodeV[n] = x[c.vOff()+fi]
		} else {
			s.nodeV[n] = 0
		}
	}
	for _, pn := range c.pins {
		s.nodeV[pn.node] = pn.src.V(t + h)
	}
	s.Spans.End(obs.PhaseCondFill, tok)

	// Refactor (C/h·I + A) at this step's h and conductances. refactor
	// self-times: stamp around the assembly, and the numeric
	// refactorization through the solver's own hook.
	shift := p.C / h
	if err := s.f.refactor(c, s.Spans, shift, s.g); err != nil {
		return fmt.Errorf("circuit: IMEX voltage system singular: %w", err)
	}
	tok = s.Spans.Begin()
	s.rhs.Zero()
	c.plan.assembleRHS(s.rhs, s.g, s.nodeV)
	for k, node := range c.dcgNodes {
		if fi := c.freeIdx[node]; fi >= 0 {
			s.rhs[fi] -= x[c.iOff()+k]
		}
	}
	for f := 0; f < c.nv; f++ {
		s.rhs[f] += float64(shift * x[c.vOff()+f])
	}
	tok = s.Spans.Lap(obs.PhaseStamp, tok)
	s.f.slu.SolveInto(s.vNew, s.rhs) // self-times into PhaseSolve
	tok = s.Spans.Begin()

	// Updated full node-voltage view.
	for n := 0; n < c.numNodes; n++ {
		if fi := c.freeIdx[n]; fi >= 0 {
			s.nodeV[n] = s.vNew[fi]
		}
	}

	// Explicit updates of the slow states using the new voltages, plus
	// the dissipation tally g·d² per branch.
	s.advanceSlowStates(h, x)
	// Commit voltages.
	for f := 0; f < c.nv; f++ {
		x[c.vOff()+f] = s.vNew[f]
	}
	s.computed++
	// Per-step in-loop checks (compiled out without the dmminvariant
	// tag): the backward-Euler voltage solve must stay finite and inside
	// the admissible envelope. The slow-state bounds are checked post-
	// clamp by the driver's Verify hook, which sees the state after
	// ClampState absorbs the one-step explicit overshoot.
	if invariant.Enabled {
		step := s.computed // this step call's number: the stepper cannot know acceptance
		vb := VBoundFactor * p.Vc
		if v := invariant.Range("voltage-bound", "free-node", step, t+h, s.vNew, -vb, vb); v != nil {
			v.Index = c.nodeOfFree(v.Index)
			return v
		}
		if v := invariant.Finite("state", step, t+h, x); v != nil {
			return v
		}
	}
	s.Spans.End(obs.PhaseMemAdvance, tok)
	return nil
}

// advanceSlowStates performs the explicit update of the slow states —
// memristor x through memristor.Model.Advance, VCDCG currents i and
// controls s through device.VCDCG.Advance — from the freshly solved node
// voltages, accumulating the per-step dissipation tally over every DCM
// branch (memristors g·d², then resistors d²/R) into the energy integral.
// The memristor kernel reuses the conductances s.g that fillConductances
// computed from the same states.
func (s *IMEXStepper) advanceSlowStates(h float64, x la.Vector) {
	c := s.c
	p := &c.Params
	var power float64
	mb := &c.memBr
	g := s.g[:mb.len()]
	for j := range s.drop {
		d := s.nodeV[mb.node[j]] - mb.level(j, s.nodeV)
		power += float64(g[j] * d * d)
		s.drop[j] = d
	}
	rb := &c.resBr
	invR := 1 / p.R
	for j := 0; j < rb.len(); j++ {
		d := s.nodeV[rb.node[j]] - rb.level(j, s.nodeV)
		power += float64(d * d * invR)
	}
	s.energy += float64(h * power)
	p.Mem.Advance(h, x[c.xOff():c.xOff()+c.nm], mb.sigma, s.drop, g)
	for k, node := range c.dcgNodes {
		s.dcgV[k] = s.nodeV[node]
	}
	p.DCG.Advance(h, s.dcgV, x[c.iOff():c.iOff()+c.nd], x[c.sOff():c.sOff()+c.nd])
}
