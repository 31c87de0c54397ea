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
// the dense O(nv³). Dense selects the dense-LU fallback for A/B runs.
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

	// StaleMax widens the reuse band on the sparse path: when the
	// conductance drift since a cached factorization exceeds RefactorTol
	// but stays within StaleMax, the stale factor is kept as a
	// preconditioner and the solve is iteratively refined against the
	// freshly assembled matrix instead of refactoring (see solveRefined).
	// The refined solution satisfies the current system to
	// RefineTol·‖rhs‖∞, so accuracy is residual-controlled, not
	// drift-controlled; the factor's useful lifetime is governed by the
	// RefreshSweeps economics, so StaleMax is only a coarse safety gate.
	// ≤ RefactorTol disables refinement (the seed behavior);
	// DefaultStaleMax is the tuned ladder setting.
	StaleMax float64
	// RefineTol is the relative residual bound refined solves must meet
	// (NewIMEX seeds DefaultRefineTol).
	RefineTol float64
	// MaxRefine bounds refinement sweeps per step before falling back to
	// a full refactorization (NewIMEX seeds DefaultMaxRefine).
	MaxRefine int
	// RefreshSweeps is the break-even point of stale-factor reuse: after
	// a refined solve that needed this many sweeps or more, the slot is
	// refactored in place — the refined solution stands, but the next
	// steps start from a fresh factor instead of grinding ever more
	// sweeps out of an aging one (NewIMEX seeds DefaultRefreshSweeps).
	RefreshSweeps int
	// FactorCacheCap is the number of shifted factors kept, one per
	// step-size rung (DefaultFactorCacheCap when 0 at first Step). Each
	// slot owns a full numeric factor plus a conductance snapshot; with
	// the step-size ladder the controller oscillates among a few adjacent
	// rungs, so a handful of slots captures nearly all revisits.
	FactorCacheCap int

	// Dense selects the dense partial-pivoting LU instead of the sparse
	// symbolic-once path (the -dense A/B comparator).
	Dense bool

	// Obs, when non-nil, receives refactorization telemetry — the one
	// event the driver cannot see. Accept/reject counting stays with the
	// driver's own hook so steps are never double-counted.
	Obs *obs.StepObs

	// Spans, when non-nil, receives the per-phase lap timings of Step.
	// The stepper laps around the self-timed SparseLU calls (Refactor,
	// SolveInto — wired onto its private clone in refactorSlot) so no
	// interval is ever charged to two phases.
	Spans *obs.Spans

	// sparse path: private values over the shared pattern, private numeric
	// factors over the shared symbolic analysis, and the per-rung factor
	// cache (the active factor is always cache.slots[...].fac installed
	// via SetFactor).
	csr   *la.CSR
	slu   *la.SparseLU
	cache facCache
	// dense path
	aMat *la.Dense
	lu   *la.LU

	// dense-path factor identity (the sparse path keys by cache slot).
	haveFactor bool
	hAtFactor  float64

	g      la.Vector // per-branch conductances in plan order [mem | resistor]
	gCache la.Vector // memristor part at the last dense factorization
	rhs    la.Vector
	nodeV  la.Vector
	vNew   la.Vector
	vPrev  la.Vector // solution one step back, for the refinement warm start
	vPrev2 la.Vector // solution two steps back (quadratic extrapolation)
	resid  la.Vector // refinement scratch: rhs − M·vNew
	delta  la.Vector // refinement scratch: correction per sweep

	// energy accumulates the dissipated energy ∫ Σ_b g_b·d_b² dt over the
	// resistive branches (Sec. VI-I's polynomial-energy accounting).
	energy float64
}

// Energy returns the dissipated energy accumulated since construction (or
// the last ResetEnergy call).
func (s *IMEXStepper) Energy() float64 { return s.energy }

// ResetEnergy zeroes the dissipation accumulator.
func (s *IMEXStepper) ResetEnergy() { s.energy = 0 }

// DefaultStaleMax is the stale-reuse band the solution-mode solver
// enables alongside the step-size ladder: conductance drift up to 4×
// keeps the cached factor as a refinement preconditioner. The band is
// deliberately loose — relative drift of a near-floor conductance barely
// moves the C/h-shifted system, so the refinement contraction stays fast
// long after small branches have drifted past 100% — and the factor's
// economic lifetime is governed by DefaultRefreshSweeps instead.
const DefaultStaleMax = 4.0

// Refinement defaults. Each sweep dst += M_stale⁻¹(rhs − M·dst) is one
// triangular solve plus one fused residual pass — roughly a tenth of a
// numeric refactorization on the 6-bit multiplier — and contracts the
// residual by ‖M_stale⁻¹ΔA‖, the conductance drift weighted against the
// shifted diagonal. With the extrapolated warm start most steps
// converge in a few sweeps; once a solve needs DefaultRefreshSweeps the
// sweeps cost about as much as refactoring, so the slot is refreshed in
// place. DefaultMaxRefine is only the hard fallback bound
// (solveRefined's contraction bail normally fires far earlier). The
// 1e-6 relative residual is ~10³ tighter than the error the seed
// predicate already accepted by reusing factors with RefactorTol-stale
// conductances unrefined.
const (
	DefaultRefineTol      = 1e-6
	DefaultMaxRefine      = 25
	DefaultRefreshSweeps  = 20
	DefaultFactorCacheCap = 4
)

// NewIMEX returns an IMEX stepper bound to c, using the sparse
// symbolic-once solve; set Dense before the first Step for the dense
// fallback.
func NewIMEX(c *Circuit, stats *ode.Stats) *IMEXStepper {
	return &IMEXStepper{
		c:             c,
		stats:         stats,
		RefactorTol:   5e-3,
		RefineTol:     DefaultRefineTol,
		MaxRefine:     DefaultMaxRefine,
		RefreshSweeps: DefaultRefreshSweeps,
		g:             la.NewVector(c.memBr.len() + c.resBr.len()),
		gCache:        la.NewVector(c.nm),
		rhs:           la.NewVector(c.nv),
		nodeV:         la.NewVector(c.numNodes),
		vNew:          la.NewVector(c.nv),
		vPrev:         la.NewVector(c.nv),
		vPrev2:        la.NewVector(c.nv),
		resid:         la.NewVector(c.nv),
		delta:         la.NewVector(c.nv),
	}
}

// Name identifies the method.
func (s *IMEXStepper) Name() string { return "imex" }

// Adaptive reports false: the stepper runs at the driver's fixed h.
func (s *IMEXStepper) Adaptive() bool { return false }

// needRefactor reports whether the dense path's factorization of
// (C/h·I + A) must be refreshed for a step of size h: there is none yet,
// the step size (and with it the diagonal shift) changed, staleness is
// disabled (RefactorTol ≤ 0 refreshes every step), or some memristor
// conductance drifted beyond the relative tolerance since the last
// factorization. The sparse path makes the same decision per cache slot
// in classifyReuse, with the additional refine band (see faccache.go).
func (s *IMEXStepper) needRefactor(h float64) bool {
	if !s.haveFactor || s.RefactorTol <= 0 {
		return true
	}
	if s.hAtFactor != h { //dmmvet:allow floateq — exact cache key: any change of h invalidates the C/h diagonal shift
		return true
	}
	return conductanceDrift(s.g[:s.c.nm], s.gCache, s.RefactorTol)
}

// conductanceDrift reports whether any entry of gNow has moved more than
// tol (relative) from the cached value it was factorized at.
func conductanceDrift(gNow, gCache la.Vector, tol float64) bool {
	for m := range gNow {
		if math.Abs(gNow[m]-gCache[m]) > tol*gCache[m] {
			return true
		}
	}
	return false
}

// factorizeDense assembles shift·I + A(g) through the stamp plan and
// factors it with the dense partial-pivoting LU. The sparse path factors
// through refactorSlot (faccache.go) instead.
//
//dmmvet:coldpath — runs only on dense-path refactor events (first step, h change, conductance drift past RefactorTol); its allocations are amortized across the run, not per-step
func (s *IMEXStepper) factorizeDense(shift float64) error {
	c := s.c
	if s.aMat == nil {
		s.aMat = la.NewDense(c.nv, c.nv)
	}
	c.plan.assemble(s.aMat.Data, true, shift, s.g)
	lu, err := la.Factorize(s.aMat)
	if err != nil {
		return err
	}
	s.lu = lu
	return nil
}

// countRefactor tallies one numeric refactorization.
func (s *IMEXStepper) countRefactor() {
	if s.stats != nil {
		s.stats.JacEvals++
		s.stats.Refactors++
	}
	s.Obs.Refactor()
}

// countFactorHit tallies one step served from a cached factor, with the
// refinement sweeps it took (0 for exact reuse).
func (s *IMEXStepper) countFactorHit(sweeps int) {
	if s.stats != nil {
		s.stats.FactorHits++
		s.stats.Refines += sweeps
	}
	s.Obs.FactorHit()
	s.Obs.Refine(sweeps)
}

// solveInto solves the factored voltage system. Both branches self-time
// into PhaseSolve (the sparse solver through its own Spans hook).
func (s *IMEXStepper) solveInto(dst, rhs la.Vector) {
	if s.Dense {
		tok := s.Spans.Begin()
		s.lu.SolveInto(dst, rhs)
		s.Spans.End(obs.PhaseSolve, tok)
		return
	}
	s.slu.SolveInto(dst, rhs)
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

	// Factor bookkeeping for (C/h·I + A). The dense path keeps one factor
	// guarded by needRefactor; the sparse path looks up the per-rung cache
	// and either reuses a factor exactly, keeps a stale one for iterative
	// refinement (resolved after the RHS is assembled), or refactors.
	shift := p.C / h
	var refineSlot *facSlot
	var refineBits uint64
	if s.Dense {
		if s.needRefactor(h) {
			if err := s.factorizeDense(shift); err != nil {
				return 0, fmt.Errorf("%w: IMEX voltage system singular: %v", ode.ErrStepFailure, err)
			}
			s.gCache.CopyFrom(s.g[:c.nm])
			s.hAtFactor = h
			s.haveFactor = true
			s.countRefactor()
		}
		tok = s.Spans.Lap(obs.PhaseFactor, tok)
	} else {
		s.ensureCache()
		hBits := math.Float64bits(h)
		slot, hit := s.cache.lookup(hBits)
		switch s.classifyReuse(slot, hit) {
		case facRefactor:
			tok = s.Spans.Lap(obs.PhaseFactor, tok)
			// refactorSlot self-times: stamp around the assembly, and the
			// numeric refactorization through the solver's own hook.
			if err := s.refactorSlot(slot, hBits, shift, false); err != nil {
				return 0, fmt.Errorf("%w: IMEX voltage system singular: %v", ode.ErrStepFailure, err)
			}
			s.countRefactor()
			tok = s.Spans.Begin()
		case facExact:
			s.slu.SetFactor(slot.fac)
			s.countFactorHit(0)
			tok = s.Spans.Lap(obs.PhaseFactor, tok)
		case facRefine:
			// Assemble the current matrix values now — solveRefined
			// computes residuals against them — but defer the solve (and
			// the hit/refactor decision) until the RHS exists.
			s.slu.SetFactor(slot.fac)
			tok = s.Spans.Lap(obs.PhaseFactor, tok)
			c.plan.assemble(s.csr.Val, false, shift, s.g)
			tok = s.Spans.Lap(obs.PhaseStamp, tok)
			refineSlot, refineBits = slot, hBits
		}
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
	if refineSlot != nil {
		// solveRefined and the fallback calls below self-time their
		// refine/solve/factor intervals; re-open the running lap after.
		if sweeps, ok := s.solveRefined(); ok {
			s.countFactorHit(sweeps)
			if sweeps >= s.RefreshSweeps {
				// The factor has aged past break-even: the sweeps this
				// solve needed cost as much as a refactorization. The
				// refined solution stands; refresh the slot (the current
				// values are already assembled in s.csr) so the next
				// steps start from a fresh factor.
				if err := s.refactorSlot(refineSlot, refineBits, shift, true); err != nil {
					return 0, fmt.Errorf("%w: IMEX voltage system singular: %v", ode.ErrStepFailure, err)
				}
				s.countRefactor()
			}
		} else {
			// The stale factor could not refine the residual down to
			// RefineTol·‖rhs‖∞ (contraction bail or MaxRefine): pay the
			// full refactorization and solve directly.
			if err := s.refactorSlot(refineSlot, refineBits, shift, true); err != nil {
				return 0, fmt.Errorf("%w: IMEX voltage system singular: %v", ode.ErrStepFailure, err)
			}
			s.countRefactor()
			s.slu.SolveInto(s.vNew, s.rhs)
		}
		tok = s.Spans.Begin()
	} else {
		// Direct solve: keep the warm-start history one and two steps
		// behind for the next refined step (solveRefined shifts it
		// itself).
		s.vPrev2.CopyFrom(s.vPrev)
		s.vPrev.CopyFrom(s.vNew)
		tok = s.Spans.Lap(obs.PhaseSolve, tok)
		s.solveInto(s.vNew, s.rhs) // self-times into PhaseSolve
		tok = s.Spans.Begin()
	}

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
