// Package solc compiles boolean circuits onto self-organizing logic
// circuits and runs them in solution mode: the inverse protocol of
// Sec. III-C. Pinned output bits are imposed by ramped DC generators, every
// other signal node carries a VCDCG, and the compiled dynamical system is
// integrated until it self-organizes into a configuration satisfying every
// gate — which is then decoded, independently re-verified against the
// boolean circuit, and returned.
package solc

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/boolcirc"
	"repro/internal/circuit"
	"repro/internal/la"
	"repro/internal/obs"
	"repro/internal/solg"
)

// Compiled couples a boolean circuit with its SOLC realization.
type Compiled struct {
	BC *boolcirc.Circuit
	// Eng is the compiled circuit, for its sizes. It is typed as the
	// circuit.Engine interface because the end-to-end benchmark in
	// e2ebench type-asserts it to *circuit.Circuit.
	Eng circuit.Engine
	// NodeOf maps each boolean signal to its circuit node.
	NodeOf []circuit.Node
	// Pins holds the imposed bits (constants plus caller pins).
	Pins map[boolcirc.Signal]bool
	// pinConflict records a caller pin that contradicts a circuit
	// constant: the problem is unsatisfiable, so Solve launches no
	// attempt.
	pinConflict bool
	// circ is the compiled circuit Eng holds, which the solver drives;
	// every attempt integrates a Clone of it.
	circ *circuit.Circuit
	// pool holds the restart-attempt workspaces every Solve on this
	// compile reuses.
	pool freeList[*workspace]
}

// opKind maps boolean ops onto self-organizing gate kinds.
func opKind(op boolcirc.Op) solg.Kind {
	switch op {
	case boolcirc.And:
		return solg.AND
	case boolcirc.Or:
		return solg.OR
	case boolcirc.Xor:
		return solg.XOR
	case boolcirc.Nand:
		return solg.NAND
	case boolcirc.Nor:
		return solg.NOR
	case boolcirc.Xnor:
		return solg.XNOR
	case boolcirc.Not:
		return solg.NOT
	}
	panic("solc: unknown op")
}

// Compile maps every boolean signal to a circuit node, every gate to a
// self-organizing gate, and pins the circuit constants plus the
// caller-imposed bits (the control unit's input b of the inverse
// protocol). The result is the capacitive form, node voltages as ODE
// states over an explicit node-to-ground capacitance, which the IMEX
// integrator steps.
func Compile(bc *boolcirc.Circuit, pins map[boolcirc.Signal]bool, p circuit.Params) *Compiled {
	b := circuit.NewBuilder(p)
	b.Grow(len(bc.Gates))
	nodeOf := make([]circuit.Node, bc.NumSignals())
	for s := range nodeOf {
		nodeOf[s] = b.Node()
	}
	for _, g := range bc.Gates {
		if g.Op == boolcirc.Not {
			b.AddNot(nodeOf[g.A], nodeOf[g.Out])
			continue
		}
		b.AddGate(opKind(g.Op), nodeOf[g.A], nodeOf[g.B], nodeOf[g.Out])
	}
	all := bc.Constants()
	conflict := false
	for s, v := range pins {
		if cv, ok := all[s]; ok && cv != v {
			//dmmvet:allow detflow — conflict is an OR over every pin; the order that sets it cannot change it
			conflict = true
		}
		all[s] = v
	}
	for s, v := range all {
		//dmmvet:allow detflow — PinBit is a keyed insert per signal; Builder.Build sorts pins by node before use
		b.PinBit(nodeOf[s], v)
	}
	c := b.Build()
	return &Compiled{BC: bc, Eng: c, NodeOf: nodeOf, Pins: all, pinConflict: conflict, circ: c}
}

// WinnerPolicy selects how the parallel restart pool picks among attempts
// that reach a verified equilibrium.
type WinnerPolicy int

// Winner policies.
const (
	// WinnerLowestAttempt (the default) returns the lowest-indexed attempt
	// that solves. Because every attempt's trajectory depends only on its
	// derived seed (Seed + attempt), the returned assignment and attempt
	// count are identical for any Parallelism — the deterministic policy.
	// A win cancels only the attempts that can no longer affect the result
	// (those with higher indices).
	WinnerLowestAttempt WinnerPolicy = iota
	// WinnerFirstDone returns the first attempt observed to solve and
	// cancels every other attempt immediately. Fastest wall-clock — racing
	// restarts pays off even on one core because a slow attempt no longer
	// blocks a fast one — but which attempt wins depends on scheduling.
	WinnerFirstDone
)

// Options tunes the solution-mode integration.
type Options struct {
	// H is the initial step of every attempt. The IMEX stepper grows h
	// ×1.1 per accepted step up to min(HMax, its stability ceiling
	// 0.7·min(2√(C/m1), 2/γ) from circuit.Params), never capping it
	// below H: with HMax = H it runs at a fixed h. Zero values select
	// defaults suited to circuit.Default parameters.
	H, HMax float64
	// TEnd is the per-attempt time horizon in circuit time units.
	TEnd float64
	// MaxAttempts bounds the number of random restarts.
	MaxAttempts int
	// Seed seeds the initial-condition generators: attempt k draws its
	// initial state from Seed + k, so a given attempt's trajectory is
	// reproducible regardless of scheduling or Parallelism.
	Seed int64
	// Parallelism bounds how many restarts integrate concurrently:
	// 0 selects GOMAXPROCS, 1 recovers the sequential restart loop.
	Parallelism int
	// Policy picks the winning attempt when restarts race (see
	// WinnerPolicy; the default is the deterministic WinnerLowestAttempt).
	Policy WinnerPolicy
	// Deadline, when positive, bounds the wall-clock time of the whole
	// solve; attempts still running when it expires are cancelled.
	Deadline time.Duration
	// Ctx, when non-nil, cancels the solve externally (nil means
	// context.Background).
	Ctx context.Context
	// Verify enables per-step runtime invariant checking (voltage bounds,
	// x ∈ [0,1], current window, finiteness — see internal/invariant) on
	// every attempt; a blown bound fails the attempt with a structured
	// *invariant.Violation instead of integrating a bad trajectory to the
	// horizon. Always on when the binary is built with -tags dmminvariant.
	Verify bool
	// Observe, when non-nil, receives every accepted step's time and node
	// voltages (for trajectory recording). A non-nil Observe forces
	// sequential execution (Parallelism 1) so the callback never runs
	// concurrently with itself.
	Observe func(t float64, nodeV la.Vector)
	// Telemetry, when non-nil, receives attempt-lifecycle events, step
	// metrics and decimated physics samples. Unlike Observe, every
	// instrument is safe for concurrent use, so telemetry does NOT force
	// sequential execution.
	Telemetry *obs.Telemetry
}

// DefaultOptions returns solver settings tuned for circuit.Default.
func DefaultOptions() Options {
	return Options{
		H: 1e-3, HMax: 1e-1,
		TEnd:        200,
		MaxAttempts: 3,
		Seed:        1,
	}
}

// checkFinite rejects a NaN or infinite TEnd, H or HMax.
// withDefaults replaces only values <= 0, so a NaN or +Inf TEnd would
// otherwise reach the driver as an unbounded horizon and never return.
func (o Options) checkFinite() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"TEnd", o.TEnd}, {"H", o.H}, {"HMax", o.HMax}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("solc: Options.%s = %v, want a finite value", f.name, f.v)
		}
	}
	return nil
}

// withDefaults fills each H, HMax and TEnd that is ≤ 0 with its
// DefaultOptions value, and raises MaxAttempts to at least 1.
func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.H <= 0 {
		o.H = d.H
	}
	if o.HMax <= 0 {
		o.HMax = d.HMax
	}
	if o.TEnd <= 0 {
		o.TEnd = d.TEnd
	}
	if o.MaxAttempts < 1 {
		o.MaxAttempts = 1
	}
	return o
}

// Result reports a solution-mode run.
type Result struct {
	// Solved is true when the SOLC reached a verified logic equilibrium.
	Solved bool
	// Assignment is the decoded full signal assignment (valid when Solved).
	Assignment boolcirc.Assignment
	// T is t*, the dynamical time of the winning attempt's first verified
	// read-out: its first accepted step past the input ramp whose
	// node-voltage signs satisfy every gate (or, unsolved, the largest
	// dynamical time any attempt reached).
	T float64
	// Attempts is the number of initial conditions consumed by the result:
	// winning attempt index + 1 when solved (identical for sequential and
	// parallel runs under WinnerLowestAttempt), attempts launched
	// otherwise.
	Attempts int
	// Steps is the total number of accepted integration steps across the
	// attempts the result consumed: those up to the winner when solved,
	// every launched one otherwise. Attempts the winner cancels are left
	// out, so under WinnerLowestAttempt the total does not depend on
	// Parallelism; the telemetry counters count every launched attempt.
	Steps int
	// FEvals is the total number of right-hand-side evaluations across
	// the same attempts as Steps.
	FEvals int
	// Wall is the elapsed wall-clock time.
	Wall time.Duration
	// Energy is the dissipated energy ∫Σ g·d² dt accumulated across the
	// same attempts as Steps.
	Energy float64
	// Reason describes why the run ended.
	Reason string
	// Launched counts attempts actually started; Cancelled counts those
	// stopped early by a winner or the deadline.
	Launched, Cancelled int
	// WinnerAttempt is the winning attempt index (-1 when unsolved) and
	// WinnerSeed its derived RNG seed (Options.Seed + WinnerAttempt).
	WinnerAttempt int
	WinnerSeed    int64
	// WinnerMember labels the solver configuration that produced the
	// solution: always memberLabel, "imex-capacitive".
	WinnerMember string
}

// Solve runs solution mode: integrate from random initial conditions until
// the circuit self-organizes, decoding and verifying the result. Failed
// attempts (time horizon reached without a verified equilibrium) restart
// from a fresh initial condition, as the multi-step inverse protocol of
// Sec. IV-E allows; Options.Parallelism races restarts concurrently with
// first-winner cancellation (see Portfolio for the pool semantics).
func (cs *Compiled) Solve(opts Options) (Result, error) {
	return (&Portfolio{cs: cs}).Solve(opts)
}

// Decode reads the logic value of every boolean signal from the state.
func (cs *Compiled) Decode(t float64, x la.Vector) boolcirc.Assignment {
	return cs.decodeWith(cs.circ, t, x)
}

// decodeWith decodes through an explicit circuit (a per-attempt clone
// during parallel solves, so concurrent decodes never share scratch).
func (cs *Compiled) decodeWith(eng *circuit.Circuit, t float64, x la.Vector) boolcirc.Assignment {
	nodeV := eng.NodeVoltages(t, x, nil)
	assign := make(boolcirc.Assignment, len(cs.NodeOf))
	for s, n := range cs.NodeOf {
		assign[s] = nodeV[n] > 0
	}
	return assign
}

// readOut is an attempt's stop predicate: past the input ramp, the sign
// of every node voltage satisfies every gate. Once the ramp is over each
// pinned node sits at its target ±vc, so with consistent pins the
// predicate holds exactly when the decoded assignment passes
// BC.Satisfied and pinsRespected: an attempt stops at its first verified
// read-out. A pin that contradicts a circuit constant makes the problem
// unsatisfiable, and no read-out is ever taken (Solve launches no
// attempt on such a compile).
func (cs *Compiled) readOut(eng *circuit.Circuit, t float64, x la.Vector) bool {
	return !cs.pinConflict && t > eng.Params.TRise && eng.GatesSatisfied(t, x)
}

// reasonPinConflict is the Result.Reason of a Solve on a compile whose
// caller pins contradict a circuit constant: no assignment satisfies it,
// so no attempt is launched.
const reasonPinConflict = "a pin contradicts a circuit constant, so no equilibrium exists"

func (cs *Compiled) pinsRespected(a boolcirc.Assignment) bool {
	for s, v := range cs.Pins {
		if a[s] != v {
			return false
		}
	}
	return true
}
