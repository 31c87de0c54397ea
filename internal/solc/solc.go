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
	"time"

	"repro/internal/boolcirc"
	"repro/internal/circuit"
	"repro/internal/la"
	"repro/internal/obs"
	"repro/internal/ode"
	"repro/internal/solg"
)

// Compiled couples a boolean circuit with its SOLC realization.
type Compiled struct {
	BC  *boolcirc.Circuit
	Eng circuit.Engine
	// NodeOf maps each boolean signal to its circuit node.
	NodeOf []circuit.Node
	// Pins holds the imposed bits (constants plus caller pins).
	Pins map[boolcirc.Signal]bool
}

// Mode selects the dynamical form the boolean circuit is compiled to.
type Mode int

// Compilation modes.
const (
	// ModeQuasiStatic eliminates node voltages algebraically (the paper's
	// order-reduced DAE form). It is Mode's zero value but not the
	// default: the IMEX stepper cannot integrate it, so it serves the
	// explicit and implicit steppers (e.g. DefaultPortfolio's rk45
	// member).
	ModeQuasiStatic Mode = iota
	// ModeCapacitive keeps node voltages as ODE states with an explicit
	// node-to-ground capacitance. It is the form Compile uses, and the
	// default IMEX stepper requires it.
	ModeCapacitive
)

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
// protocol). It uses the capacitive engine, which the default IMEX
// integrator requires; see CompileMode.
func Compile(bc *boolcirc.Circuit, pins map[boolcirc.Signal]bool, p circuit.Params) *Compiled {
	return CompileMode(bc, pins, p, ModeCapacitive)
}

// CompileMode is Compile with an explicit choice of dynamical form.
func CompileMode(bc *boolcirc.Circuit, pins map[boolcirc.Signal]bool, p circuit.Params, mode Mode) *Compiled {
	b := circuit.NewBuilder(p)
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
	all := make(map[boolcirc.Signal]bool)
	for s, v := range bc.Constants() {
		all[s] = v
	}
	for s, v := range pins {
		all[s] = v
	}
	for s, v := range all {
		//dmmvet:allow detflow — PinBit is a keyed insert per signal; Builder.Build sorts pins by node before use
		b.PinBit(nodeOf[s], v)
	}
	var eng circuit.Engine
	if mode == ModeCapacitive {
		eng = b.Build()
	} else {
		eng = b.BuildQS()
	}
	return &Compiled{BC: bc, Eng: eng, NodeOf: nodeOf, Pins: all}
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
	// H, HMax, Tol configure the adaptive integrator (zero values select
	// defaults suited to circuit.Default parameters).
	H, HMax, Tol float64
	// TEnd is the per-attempt time horizon in circuit time units.
	TEnd float64
	// ConvTol is the voltage tolerance for calling a node ±vc.
	ConvTol float64
	// MaxAttempts bounds the number of random restarts.
	MaxAttempts int
	// Seed seeds the initial-condition generators: attempt k draws its
	// initial state from Seed + k, so a given attempt's trajectory is
	// reproducible regardless of scheduling or Parallelism.
	Seed int64
	// Stepper selects the integration method: "imex" (default, requires
	// ModeCapacitive compilation), "rk45", "rk4", "heun", "euler",
	// "trapezoidal".
	Stepper string
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
		H: 1e-3, HMax: 1e-1, Tol: 1e-6,
		TEnd:        200,
		ConvTol:     0.02,
		MaxAttempts: 3,
		Seed:        1,
		Stepper:     "imex",
	}
}

// withDefaults fills zero-valued fields with DefaultOptions-compatible
// settings.
func (o Options) withDefaults() Options {
	if o.H <= 0 {
		o.H = 1e-3
	}
	if o.HMax <= 0 {
		o.HMax = 1e-1
	}
	if o.Tol <= 0 {
		o.Tol = 1e-6
	}
	if o.TEnd <= 0 {
		o.TEnd = 200
	}
	if o.ConvTol <= 0 {
		o.ConvTol = 0.02
	}
	if o.MaxAttempts < 1 {
		o.MaxAttempts = 1
	}
	if o.Stepper == "" {
		o.Stepper = "imex"
	}
	return o
}

// Result reports a solution-mode run.
type Result struct {
	// Solved is true when the SOLC reached a verified logic equilibrium.
	Solved bool
	// Assignment is the decoded full signal assignment (valid when Solved).
	Assignment boolcirc.Assignment
	// T is the winning attempt's convergence time (or, unsolved, the
	// largest dynamical time any attempt reached).
	T float64
	// Attempts is the number of initial conditions consumed by the result:
	// winning attempt index + 1 when solved (identical for sequential and
	// parallel runs under WinnerLowestAttempt), attempts launched
	// otherwise.
	Attempts int
	// Steps is the total number of accepted integration steps across all
	// launched attempts.
	Steps int
	// FEvals is the total number of right-hand-side evaluations across all
	// launched attempts.
	FEvals int
	// Wall is the elapsed wall-clock time.
	Wall time.Duration
	// Energy is the dissipated energy ∫Σ g·d² dt accumulated across all
	// attempts (populated by the IMEX stepper; 0 otherwise).
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
	// WinnerMember names the portfolio member that produced the solution
	// (the stepper name for single-engine solves).
	WinnerMember string
}

// newStepper builds the requested integration method. eng is consulted
// for the IMEX stepper, which is bound to a capacitive circuit.
func newStepper(name string, stats *ode.Stats, eng circuit.Engine) (ode.Stepper, error) {
	switch name {
	case "", "imex":
		c, ok := eng.(*circuit.Circuit)
		if !ok {
			return nil, fmt.Errorf("solc: stepper %q requires the capacitive engine (ModeCapacitive)", "imex")
		}
		return circuit.NewIMEX(c, stats), nil
	case "rk45":
		return ode.NewRK45(stats), nil
	case "rk4":
		return ode.NewRK4(stats), nil
	case "heun":
		return ode.NewHeun(stats), nil
	case "euler":
		return ode.NewEuler(stats), nil
	case "trapezoidal":
		return ode.NewTrapezoidal(stats), nil
	}
	return nil, fmt.Errorf("solc: unknown stepper %q", name)
}

// Solve runs solution mode: integrate from random initial conditions until
// the circuit self-organizes, decoding and verifying the result. Failed
// attempts (time horizon reached without a verified equilibrium) restart
// from a fresh initial condition, as the multi-step inverse protocol of
// Sec. IV-E allows; Options.Parallelism races restarts concurrently with
// first-winner cancellation (see Portfolio for the pool semantics).
func (cs *Compiled) Solve(opts Options) (Result, error) {
	pf := &Portfolio{
		members:  []PortfolioMember{{Stepper: opts.Stepper}},
		compiled: []*Compiled{cs},
	}
	return pf.Solve(opts)
}

// Decode reads the logic value of every boolean signal from the state.
func (cs *Compiled) Decode(t float64, x la.Vector) boolcirc.Assignment {
	return cs.decodeWith(cs.Eng, t, x)
}

// decodeWith decodes through an explicit engine (a per-attempt clone
// during parallel solves, so concurrent decodes never share scratch).
func (cs *Compiled) decodeWith(eng circuit.Engine, t float64, x la.Vector) boolcirc.Assignment {
	nodeV := eng.NodeVoltages(t, x, nil)
	assign := make(boolcirc.Assignment, len(cs.NodeOf))
	for s, n := range cs.NodeOf {
		assign[s] = nodeV[n] > 0
	}
	return assign
}

func (cs *Compiled) pinsRespected(a boolcirc.Assignment) bool {
	for s, v := range cs.Pins {
		if a[s] != v {
			return false
		}
	}
	return true
}
