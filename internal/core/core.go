// Package core is the public facade of the digital-memcomputing
// reproduction: it builds the paper's two benchmark machines — the prime
// factorization SOLC (Sec. VII-A, Fig. 11) and the subset-sum SOLC
// (Sec. VII-B, Fig. 14) — and runs them in solution mode, returning
// decoded and independently verified answers together with the dynamical
// metrics the evaluation section reports.
package core

import (
	"fmt"
	"time"

	"repro/internal/circuit"
	"repro/internal/la"
	"repro/internal/obs"
	"repro/internal/solc"
	"repro/internal/trace"
)

// Config selects electrical parameters and solver settings.
type Config struct {
	// Params are the circuit parameters (circuit.Default() if zero).
	Params circuit.Params
	// TEnd is the per-attempt integration horizon.
	TEnd float64
	// MaxAttempts bounds the random restarts per problem.
	MaxAttempts int
	// Seed seeds initial conditions (attempt k derives Seed + k).
	Seed int64
	// StepH is the initial IMEX step; each attempt grows it toward the
	// stepper's stability ceiling (solc.Options.H).
	StepH float64
	// Parallelism bounds how many restarts integrate concurrently
	// (0 = GOMAXPROCS, 1 = sequential).
	Parallelism int
	// FirstWin selects the non-deterministic first-winner-cancels-all
	// policy instead of the deterministic lowest-attempt winner.
	FirstWin bool
	// Deadline, when positive, bounds the wall-clock time of each solve.
	Deadline time.Duration
	// TraceNodes, when positive, records that many node-voltage
	// trajectories (the first k signal nodes) into Result.Trace,
	// downsampled by TraceEvery.
	TraceNodes int
	TraceEvery int
	// Verify enables per-step runtime invariant checking on every attempt
	// (see internal/invariant); the cmds expose it as -check.
	Verify bool
	// Telemetry, when non-nil, receives the run's metrics, lifecycle
	// events and physics samples; the cmds wire it from -telemetry and
	// -metrics-dump.
	Telemetry *obs.Telemetry
}

// DefaultConfig returns settings that solve the paper's small instances
// in seconds on commodity hardware.
func DefaultConfig() Config {
	return Config{
		Params:      circuit.Default(),
		TEnd:        150,
		MaxAttempts: 4,
		Seed:        1,
		StepH:       1e-3,
		TraceEvery:  50,
	}
}

// PaperConfig returns the Table II parameter set (see DESIGN.md for why
// the defaults differ).
func PaperConfig() Config {
	c := DefaultConfig()
	c.Params = circuit.Paper()
	return c
}

// Metrics reports the dynamical cost of a run.
type Metrics struct {
	// Gates, Memristors, VCDCGs, StateDim describe the SOLC size (the
	// paper's space resources).
	Gates, Memristors, VCDCGs, StateDim int
	// ConvergenceTime is t*, the dynamical time of the winning attempt's
	// first verified read-out: the first accepted step past the input
	// ramp whose node-voltage signs satisfy every gate (the paper's time
	// resource; see solc.Result.T).
	ConvergenceTime float64
	// Energy is the dissipated energy ∫Σ g·d² dt (the paper's Sec. VI-I
	// energy resource; IMEX runs only).
	Energy float64
	// Attempts and Steps count restarts and integration steps; Launched
	// and Cancelled report the parallel pool's activity (Launched ≥
	// Attempts when restarts race); FEvals totals right-hand-side
	// evaluations.
	Attempts, Steps     int
	Launched, Cancelled int
	FEvals              int
	// Wall is the elapsed wall-clock time.
	Wall time.Duration
}

func (m Metrics) String() string {
	return fmt.Sprintf("gates=%d mem=%d vcdcg=%d dim=%d t*=%.2f attempts=%d launched=%d cancelled=%d steps=%d wall=%v",
		m.Gates, m.Memristors, m.VCDCGs, m.StateDim, m.ConvergenceTime, m.Attempts, m.Launched, m.Cancelled, m.Steps, m.Wall)
}

// fillRun copies the dynamical counters of a solve into the metrics.
func (m *Metrics) fillRun(res solc.Result) {
	m.ConvergenceTime = res.T
	m.Energy = res.Energy
	m.Attempts = res.Attempts
	m.Launched = res.Launched
	m.Cancelled = res.Cancelled
	m.Steps = res.Steps
	m.FEvals = res.FEvals
	m.Wall = res.Wall
}

// fill populates size metrics from a compiled SOLC.
func (m *Metrics) fill(cs *solc.Compiled) {
	_, nm, nd := cs.Eng.Counts()
	m.Gates = cs.Eng.NumGates()
	m.Memristors = nm
	m.VCDCGs = nd
	m.StateDim = cs.Eng.Dim()
}

// Options translates the Config into solver options: every setting a
// solve reads, Verify and Telemetry included.
func (cfg Config) Options() solc.Options {
	opts := solc.DefaultOptions()
	opts.TEnd = cfg.TEnd
	if cfg.MaxAttempts > 0 {
		opts.MaxAttempts = cfg.MaxAttempts
	}
	opts.Seed = cfg.Seed
	if cfg.StepH > 0 {
		opts.H = cfg.StepH
	}
	opts.Parallelism = cfg.Parallelism
	opts.Deadline = cfg.Deadline
	if cfg.FirstWin {
		opts.Policy = solc.WinnerFirstDone
	}
	opts.Verify = cfg.Verify
	opts.Telemetry = cfg.Telemetry
	return opts
}

// solve runs the common solution-mode loop on a compiled problem with
// optional tracing.
func solve(cs *solc.Compiled, cfg Config) (solc.Result, *trace.Recorder, error) {
	opts := cfg.Options()
	var rec *trace.Recorder
	if cfg.TraceNodes > 0 {
		k := cfg.TraceNodes
		if k > len(cs.NodeOf) {
			k = len(cs.NodeOf)
		}
		labels := make([]string, k)
		for i := range labels {
			labels[i] = fmt.Sprintf("v%d", i)
		}
		every := cfg.TraceEvery
		if every < 1 {
			every = 1
		}
		rec = trace.NewRecorder(labels, every)
		vals := make([]float64, k)
		// Observe forces Parallelism 1, so recErr needs no lock.
		var recErr error
		opts.Observe = func(t float64, nodeV la.Vector) {
			for i := 0; i < k; i++ {
				vals[i] = nodeV[cs.NodeOf[i]]
			}
			if err := rec.Append(t, vals); err != nil && recErr == nil {
				recErr = err
			}
		}
		res, err := cs.Solve(opts)
		if err == nil {
			err = recErr
		}
		return res, rec, err
	}
	res, err := cs.Solve(opts)
	return res, rec, err
}
