package circuit

import (
	"fmt"
	"math"

	"repro/internal/invariant"
	"repro/internal/la"
	"repro/internal/obs"
	"repro/internal/ode"
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
// explicit integration (stiffness) and the pure quasi-static solve
// (ill-conditioning). Unconditional stability in v lets the step size
// track the slow physics.
//
// The linear solve runs on the circuit's Build-time stamp plan and shared
// symbolic factorization (internal/circuit/stamp.go, la.SparseLU): each
// row of A couples a node only to the terminals sharing its gates, so the
// system is sparse and a numeric refactorization costs O(fill) instead of
// the dense O(nv³).
//
// IMEXStepper implements ode.Stepper but is bound to one *Circuit: the sys
// argument of Step must be that circuit.
type IMEXStepper struct {
	c     *Circuit
	stats *ode.Stats

	// RefactorTol is the relative conductance drift that triggers a new
	// factorization of (C/h·I + A). The diagonal shift makes modest
	// staleness harmless; 0 refactors every step.
	RefactorTol float64

	// Obs, when non-nil, receives refactorization telemetry — the one
	// event the driver cannot see. Accept/reject counting stays with the
	// driver's own hook so steps are never double-counted.
	Obs *obs.StepObs

	// Spans, when non-nil, receives the per-phase lap timings of Step.
	// The stepper laps around the self-timed SparseLU calls (Refactor,
	// SolveInto — wired onto its private clone in voltageFactor.bind) so
	// no interval is ever charged to two phases.
	Spans *obs.Spans

	// f is the one factor of (C/h·I + A), keyed by the bits of h.
	f voltageFactor

	g     la.Vector // per-branch conductances in plan order [mem | resistor]
	rhs   la.Vector
	nodeV la.Vector
	vNew  la.Vector

	// energy accumulates the dissipated energy ∫ Σ_b g_b·d_b² dt over the
	// resistive branches (Sec. VI-I's polynomial-energy accounting).
	energy float64
}

// Energy returns the dissipated energy accumulated since construction (or
// the last ResetEnergy call).
func (s *IMEXStepper) Energy() float64 { return s.energy }

// ResetEnergy zeroes the dissipation accumulator.
func (s *IMEXStepper) ResetEnergy() { s.energy = 0 }

// NewIMEX returns an IMEX stepper bound to c.
func NewIMEX(c *Circuit, stats *ode.Stats) *IMEXStepper {
	return &IMEXStepper{
		c:           c,
		stats:       stats,
		RefactorTol: 5e-3,
		g:           la.NewVector(c.memBr.len() + c.resBr.len()),
		rhs:         la.NewVector(c.nv),
		nodeV:       la.NewVector(c.numNodes),
		vNew:        la.NewVector(c.nv),
	}
}

// Name identifies the method.
func (s *IMEXStepper) Name() string { return "imex" }

// Adaptive reports false: the stepper runs at the driver's fixed h.
func (s *IMEXStepper) Adaptive() bool { return false }

// countRefactor tallies one numeric refactorization.
func (s *IMEXStepper) countRefactor() {
	if s.stats != nil {
		s.stats.JacEvals++
		s.stats.Refactors++
	}
	s.Obs.Refactor()
}

// countFactorHit tallies one step served from the existing factor.
func (s *IMEXStepper) countFactorHit() {
	if s.stats != nil {
		s.stats.FactorHits++
	}
	s.Obs.FactorHit()
}

// Step advances the circuit state by h. It is the innermost loop of
// every solve and must not allocate on the steady path (the
// TestIMEXStepTelemetryZeroAlloc budget); hotalloc enforces that
// statically from this root.
//
//dmmvet:hotpath
func (s *IMEXStepper) Step(sys ode.System, t, h float64, x la.Vector) (float64, error) {
	c := s.c
	if sys != ode.System(c) {
		return 0, fmt.Errorf("circuit: IMEXStepper bound to a different circuit")
	}
	p := &c.Params
	tok := s.Spans.Begin()

	// Conductances for the current memristor states.
	c.fillConductances(s.g, x, c.xOff())

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
	tok = s.Spans.Lap(obs.PhaseCondFill, tok)

	// Refactor (C/h·I + A) when the factor is missing, was computed at a
	// different h, or its conductances drifted past RefactorTol; otherwise
	// reuse it as is.
	shift := p.C / h
	hBits := math.Float64bits(h)
	if s.f.stale(hBits, s.g[:c.nm], s.RefactorTol) {
		tok = s.Spans.Lap(obs.PhaseFactor, tok)
		// refactor self-times: stamp around the assembly, and the numeric
		// refactorization through the solver's own hook.
		if err := s.f.refactor(c, s.Spans, hBits, shift, s.g); err != nil {
			return 0, fmt.Errorf("%w: IMEX voltage system singular: %v", ode.ErrStepFailure, err)
		}
		s.countRefactor()
		tok = s.Spans.Begin()
	} else {
		s.countFactorHit()
		tok = s.Spans.Lap(obs.PhaseFactor, tok)
	}
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
	if s.stats != nil {
		s.stats.Steps++
		s.stats.FEvals++
	}
	// Per-step in-loop checks (compiled out without the dmminvariant
	// tag): the backward-Euler voltage solve must stay finite and inside
	// the admissible envelope. The slow-state bounds are checked post-
	// clamp by the driver's Verify hook, which sees the state after
	// ClampState absorbs the one-step explicit overshoot.
	if invariant.Enabled {
		step := 0
		if s.stats != nil {
			step = s.stats.Steps
		}
		vb := VBoundFactor * p.Vc
		if v := invariant.Range("voltage-bound", "free-node", step, t+h, s.vNew, -vb, vb); v != nil {
			v.Index = c.nodeOfFree(v.Index)
			return 0, v
		}
		if v := invariant.Finite("state", step, t+h, x); v != nil {
			return 0, v
		}
	}
	s.Spans.End(obs.PhaseMemAdvance, tok)
	return 0, nil
}

// advanceSlowStates performs the explicit update of the slow states —
// memristor x through the Advance kernel, VCDCG currents i and controls
// sv — from the freshly solved node voltages, accumulating the per-step
// dissipation tally g·d² into the energy integral.
func (s *IMEXStepper) advanceSlowStates(h float64, x la.Vector) {
	c := s.c
	p := &c.Params
	var power float64
	mb := &c.memBr
	for j := 0; j < mb.len(); j++ {
		d := s.nodeV[mb.node[j]] - mb.level(j, s.nodeV)
		g := s.g[j]
		power += float64(g * d * d)
		x[c.xOff()+j] = p.Mem.Advance(h, mb.sigma[j], x[c.xOff()+j], d)
	}
	rb := &c.resBr
	invR := 1 / p.R
	for j := 0; j < rb.len(); j++ {
		d := s.nodeV[rb.node[j]] - rb.level(j, s.nodeV)
		power += float64(d * d * invR)
	}
	s.energy += float64(h * power)
	offset := p.DCG.FsOffset(x[c.iOff() : c.iOff()+c.nd])
	for k, node := range c.dcgNodes {
		i := x[c.iOff()+k]
		sv := x[c.sOff()+k]
		x[c.iOff()+k] = i + float64(h*p.DCG.DiDt(s.nodeV[node], i, sv))
		x[c.sOff()+k] = sv + float64(h*p.DCG.Fs(sv, offset))
	}
}
