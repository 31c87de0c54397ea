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

	// g and nodeV are laid out as the stamp plan reads them: g holds the
	// step's memristor conductances G(x) in state order, then 1 and the
	// shift C/h; nodeV the node voltages (pinned at t+h before the solve,
	// free after it), then 1.
	g     la.Vector
	nodeV la.Vector
	rhs   la.Vector
	vNew  la.Vector
	// resPower holds the step's resistor terms d²/R in row order, which
	// the energy tally adds after every memristor term.
	resPower la.Vector

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
	s := &IMEXStepper{
		c:     c,
		g:     la.NewVector(c.nm + 2),
		nodeV: la.NewVector(c.numNodes + 1),
		rhs:   la.NewVector(c.nv),
		vNew:  la.NewVector(c.nv),

		resPower: la.NewVector(c.nr),
	}
	s.g[c.gUnit()], s.nodeV[c.vUnit()] = 1, 1
	return s
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

	// Conductances for the current memristor states, and the pinned
	// nodes' voltages at t+h (the right-hand side reads no free node).
	c.fillConductances(s.g[:c.nm], x)
	for _, pn := range c.pins {
		s.nodeV[pn.node] = pn.src.V(t + h)
	}
	s.Spans.End(obs.PhaseCondFill, tok)

	// Refactor (C/h·I + A) at this step's h and conductances. refactor
	// self-times: stamp around the assembly, and the numeric
	// refactorization through the solver's own hook.
	shift := p.C / h
	s.g[c.gShift()] = shift
	if err := s.f.refactor(c, s.Spans, s.g); err != nil {
		return fmt.Errorf("circuit: IMEX voltage system singular: %w", err)
	}
	tok = s.Spans.Begin()
	c.plan.assembleRHS(s.rhs, s.g, s.nodeV, x[c.vOff():c.vOff()+c.nv], x[c.iOff():c.iOff()+c.nd], shift)
	tok = s.Spans.Lap(obs.PhaseStamp, tok)
	s.f.slu.SolveInto(s.vNew, s.rhs) // self-times into PhaseSolve
	tok = s.Spans.Begin()

	// Updated full node-voltage view, the explicit updates of the slow
	// states from it, and the commit of the voltages.
	for f, n := range c.freeNode {
		s.nodeV[n] = s.vNew[f]
	}
	s.advanceSlowStates(h, x)
	copy(x[c.vOff():c.vOff()+c.nv], s.vNew)
	s.computed++
	// Per-step in-loop checks (compiled out without the dmminvariant
	// tag): the backward-Euler voltage solve must stay finite and inside
	// the admissible envelope. The slow-state bounds, which
	// advanceSlowStates enforces, are checked on accepted steps by the
	// driver's Verify hook.
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

// advanceSlowStates performs the explicit update of the slow states from
// the freshly solved node voltages, accumulating the per-step dissipation
// tally over every DCM branch into the energy integral. One pass over the
// gates loads each gate's three slot voltages once and runs its kind's
// rows: a memristor row computes its drop d, adds g·d² to the power and
// steps x through memristor.Model.Update, reusing the conductances s.g
// that fillConductances computed from the same states; a resistor row
// files d²/R in resPower, which is summed after every memristor term so
// the tally adds its terms in row order, memristors first. The VCDCG
// currents i and controls s then step through device.VCDCG.Advance:
// VCDCG k sits on free node k, so its terminal voltages are vNew. Update
// keeps every memristor state in [0,1] and Advance every finite current
// inside ±IBoundFactor·IMax (Props. VI.2 and VI.5), so no pass after the
// step re-imposes them.
//
//dmmvet:hotpath
func (s *IMEXStepper) advanceSlowStates(h float64, x la.Vector) {
	c := s.c
	p := &c.Params
	m := p.Mem
	nodeV := s.nodeV
	xs := x[c.xOff() : c.xOff()+c.nm]
	g, res := s.g[:len(xs)], s.resPower
	invR := 1 / p.R
	var power float64
	j, k := 0, 0
	for gi := range c.gates {
		inst := &c.gates[gi]
		v := inst.voltages(nodeV)
		for q := range inst.rows.mem {
			r := &inst.rows.mem[q]
			d := v[r.slot] - r.level(&v)
			power += float64(g[j] * d * d)
			xs[j] = m.Update(h, xs[j], r.sigma*d, g[j])
			j++
		}
		for q := range inst.rows.res {
			r := &inst.rows.res[q]
			d := v[r.slot] - r.level(&v)
			res[k] = float64(d * d * invR)
			k++
		}
	}
	for _, e := range res {
		power += e
	}
	s.energy += float64(h * power)
	p.DCG.Advance(h, s.vNew[:c.nd], x[c.iOff():c.iOff()+c.nd], x[c.sOff():c.sOff()+c.nd])
}
