package solc

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/boolcirc"
	"repro/internal/circuit"
	"repro/internal/invariant"
	"repro/internal/la"
	"repro/internal/obs"
	"repro/internal/ode"
	"repro/internal/par"
)

// PortfolioMember describes the solver configuration a Portfolio races
// its restart attempts on: a dynamical form plus an integration method.
type PortfolioMember struct {
	// Mode selects the dynamical form the member compiles to.
	Mode Mode
	// Stepper selects the integration method ("" inherits
	// Options.Stepper).
	Stepper string
}

// Portfolio races restart attempts of one boolean problem, compiled to
// one solver configuration, on a bounded worker pool.
type Portfolio struct {
	cs      *Compiled
	stepper string
	// stop, when non-nil, replaces (*Compiled).readOut as the attempts'
	// stop predicate; tests use it to replay the same trajectories under
	// another stop criterion.
	stop func(cs *Compiled, eng circuit.Engine, t float64, x la.Vector) bool
}

// CompilePortfolio compiles the boolean circuit to the configuration of
// members, which must hold exactly one member.
func CompilePortfolio(bc *boolcirc.Circuit, pins map[boolcirc.Signal]bool, p circuit.Params, members []PortfolioMember) *Portfolio {
	if len(members) != 1 {
		panic(fmt.Sprintf("solc: CompilePortfolio takes exactly one member, got %d", len(members)))
	}
	m := members[0]
	return &Portfolio{cs: CompileMode(bc, pins, p, m.Mode), stepper: m.Stepper}
}

// Compiled returns the compiled realization of member i, which must be 0.
func (pf *Portfolio) Compiled(i int) *Compiled {
	if i != 0 {
		panic(fmt.Sprintf("solc: portfolio member %d out of range [0, 1)", i))
	}
	return pf.cs
}

// label names the configuration in events and Result.WinnerMember as
// "<stepper>-<mode>", e.g. "imex-capacitive".
func (pf *Portfolio) label(stepper string) string {
	if pf.cs.mode == ModeQuasiStatic {
		return stepper + "-quasistatic"
	}
	return stepper + "-capacitive"
}

// attemptOut is the record one restart attempt leaves in the pool.
type attemptOut struct {
	launched  bool
	cancelled bool
	solved    bool
	assign    boolcirc.Assignment
	t         float64
	steps     int
	fevals    int
	energy    float64
	reason    string
}

// poolState is the mutable state a Solve run shares across its racing
// attempts. cancels maps each running attempt's index to the cancel
// function of its context, so the winner policy's "cancel everything
// that can no longer win" sweep is a comparison on the key.
type poolState struct {
	mu       sync.Mutex
	outs     []attemptOut
	cancels  map[int]context.CancelFunc
	best     int // lowest solving attempt index seen (WinnerLowestAttempt)
	firstWin int // first solving attempt observed (WinnerFirstDone)
	firstErr error
}

// fail records the first hard error and aborts the whole solve.
// Callers must hold st.mu.
func (st *poolState) fail(err error, icancel context.CancelFunc) {
	if st.firstErr == nil {
		st.firstErr = err
		icancel()
	}
}

// reportSolved applies the winner policy to a newly solved attempt
// index: under WinnerFirstDone the first observed win cancels the whole
// pool; under WinnerLowestAttempt a new lowest index cancels every
// running attempt above it. Callers must hold st.mu.
func (st *poolState) reportSolved(i int, policy WinnerPolicy, icancel context.CancelFunc) {
	switch policy {
	case WinnerFirstDone:
		if st.firstWin < 0 {
			st.firstWin = i
			icancel()
		}
	default: // WinnerLowestAttempt
		if i < st.best {
			st.best = i
			for j, c := range st.cancels {
				if j > i {
					//dmmvet:allow detflow — cancel is idempotent; which attempts get cancelled depends on the j > i set, not the order
					c()
				}
			}
		}
	}
}

// Solve races up to MaxAttempts restarts on Options.Parallelism workers.
// Every attempt k integrates its own cloned engine from the initial
// condition drawn from Seed + k, so trajectories are reproducible
// regardless of scheduling; the winner policy decides which verified
// equilibrium is returned and which running attempts are cancelled (via
// context) once it can no longer be beaten. A non-finite TEnd, H, HMax or
// Tol is an error.
func (pf *Portfolio) Solve(opts Options) (Result, error) {
	if err := opts.checkFinite(); err != nil {
		return Result{}, err
	}
	opts = opts.withDefaults()
	if pf.stepper != "" {
		opts.Stepper = pf.stepper
	}
	//dmmvet:allow detflow — wall-clock telemetry only (Result.Wall); never feeds the trajectory or the winner policy
	start := time.Now()

	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Deadline)
		defer cancel()
	}
	// ictx aborts dispatch and every running attempt at once (first-done
	// winner, or a configuration error in any attempt).
	ictx, icancel := context.WithCancel(ctx)
	defer icancel()

	parallelism := opts.Parallelism
	if opts.Observe != nil {
		parallelism = 1
	}
	n := opts.MaxAttempts

	st := &poolState{
		outs:     make([]attemptOut, n),
		cancels:  make(map[int]context.CancelFunc),
		best:     n,
		firstWin: -1,
	}

	pf.dispatchAttempts(ictx, icancel, opts, parallelism, st)

	if st.firstErr != nil {
		return Result{}, st.firstErr
	}
	outs, best, firstWin := st.outs, st.best, st.firstWin

	res := Result{WinnerAttempt: -1}
	lastReason := ""
	for _, o := range outs {
		if !o.launched {
			continue
		}
		res.Launched++
		if o.cancelled {
			res.Cancelled++
		} else {
			lastReason = o.reason
		}
		res.Steps += o.steps
		res.FEvals += o.fevals
		res.Energy += o.energy
		if o.t > res.T {
			res.T = o.t
		}
	}
	winner := -1
	if opts.Policy == WinnerFirstDone {
		winner = firstWin
	} else if best < n {
		winner = best
	}
	if winner >= 0 {
		o := outs[winner]
		res.Solved = true
		res.Assignment = o.assign
		res.T = o.t
		res.Reason = "converged"
		res.Attempts = winner + 1
		res.WinnerAttempt = winner
		res.WinnerSeed = opts.Seed + int64(winner)
		res.WinnerMember = pf.label(opts.Stepper)
	} else {
		res.Attempts = res.Launched
		switch {
		case lastReason != "":
			res.Reason = lastReason
		case ctx.Err() == context.DeadlineExceeded:
			res.Reason = "deadline exceeded"
		case ctx.Err() != nil:
			res.Reason = "cancelled"
		default:
			res.Reason = "no attempt launched"
		}
		if res.Cancelled > 0 && ctx.Err() == context.DeadlineExceeded {
			res.Reason = "deadline exceeded"
		}
	}
	res.Wall = time.Since(start)
	return res, nil
}

// dispatchAttempts races the n restart attempts one-per-worker.
func (pf *Portfolio) dispatchAttempts(ictx context.Context, icancel context.CancelFunc, opts Options, parallelism int, st *poolState) {
	par.ForEach(ictx, opts.MaxAttempts, parallelism, func(_ context.Context, i int) {
		st.mu.Lock()
		skip := st.firstErr != nil ||
			(opts.Policy == WinnerLowestAttempt && i > st.best) ||
			(opts.Policy == WinnerFirstDone && st.firstWin >= 0)
		var actx context.Context
		if !skip {
			var acancel context.CancelFunc
			actx, acancel = context.WithCancel(ictx)
			st.cancels[i] = acancel
		}
		st.mu.Unlock()
		if skip {
			return
		}

		out, err := pf.runAttempt(actx, i, opts)

		st.mu.Lock()
		defer st.mu.Unlock()
		if c, ok := st.cancels[i]; ok {
			c()
			delete(st.cancels, i)
		}
		if err != nil {
			st.fail(err, icancel)
			return
		}
		st.outs[i] = out
		if out.solved {
			st.reportSolved(i, opts.Policy, icancel)
		}
	})
}

// runAttempt integrates restart attempt idx on a freshly cloned engine and
// classifies the outcome. It is the only code that touches per-attempt
// mutable state, so attempts are data-race free by construction.
func (pf *Portfolio) runAttempt(ctx context.Context, idx int, opts Options) (attemptOut, error) {
	cs := pf.cs
	eng := cs.Eng.Clone()

	stop := pf.stop
	if stop == nil {
		stop = (*Compiled).readOut
	}
	stats := &ode.Stats{}
	stepper, err := newStepper(opts.Stepper, stats, eng)
	if err != nil {
		return attemptOut{}, err
	}
	tl := opts.Telemetry
	seed := opts.Seed + int64(idx)
	label := pf.label(opts.Stepper)
	// One flight ring per attempt: the attempt goroutine is the single
	// writer (driver hook and stepper hook share it), dumped on
	// divergence/cancellation below. Nil-safe throughout when the
	// recorder (or telemetry entirely) is off.
	fl := tl.FlightFor(idx)
	if tl != nil {
		tl.AttemptsLaunched.Inc()
		tl.Emit(obs.Event{Ev: obs.EvLaunched, Attempt: idx, Member: label, Seed: seed})
		if im, ok := stepper.(*circuit.IMEXStepper); ok {
			im.Obs = tl.StepObsFor(fl)
			im.Spans = tl.Spans
		}
	}
	//dmmvet:allow detflow — wall-clock telemetry only (attempt duration in the trace); the trajectory reads only Seed+k state
	wallStart := time.Now()

	rng := rand.New(rand.NewSource(seed))
	x := eng.InitialState(rng)
	var nodeVBuf la.Vector
	// Decimated physics probe over this attempt's private engine clone.
	var probe *circuit.PhysicsProbe
	physEvery := 0
	if tl != nil {
		probe = circuit.NewPhysicsProbe(eng)
		physEvery = tl.PhysicsEvery
		if physEvery <= 0 {
			physEvery = obs.DefaultPhysicsEvery
		}
	}
	obsStep := 0
	driver := &ode.Driver{
		Stepper: stepper,
		H:       opts.H, HMax: opts.HMax, Tol: opts.Tol,
		TEnd: opts.TEnd,
		Ctx:  ctx,
		Obs:  tl.StepObsFor(fl),
		Observe: func(t float64, x la.Vector) {
			eng.ClampState(x)
			if opts.Observe != nil {
				nodeVBuf = eng.NodeVoltages(t, x, nodeVBuf)
				opts.Observe(t, nodeVBuf)
			}
			if probe != nil {
				obsStep++
				if obsStep%physEvery == 0 {
					ps := probe.Sample(t, x)
					tl.RecordPhysics(ps.SaturatedFrac, ps.MaxDvDt, ps.MaxDxDt, ps.MemHist[:])
					fl.Physics(ps.SaturatedFrac, ps.MaxDvDt)
				}
			}
		},
		Stop: func(t float64, x la.Vector) bool { return stop(cs, eng, t, x) },
	}
	if opts.Verify || invariant.Enabled {
		step := 0
		driver.Verify = func(t float64, x la.Vector) error {
			step++
			return eng.VerifyState(t, step, x)
		}
	}
	run := driver.Run(eng, 0, x)

	out := attemptOut{launched: true, t: run.T, steps: stats.Steps, fevals: stats.FEvals}
	if im, ok := stepper.(*circuit.IMEXStepper); ok {
		out.energy = im.Energy()
	}
	switch run.Reason {
	case ode.StopCondition:
		assign := cs.decodeWith(eng, run.T, x)
		if cs.BC.Satisfied(assign) && cs.pinsRespected(assign) {
			out.solved = true
			out.assign = assign
			out.reason = "converged"
		} else {
			out.reason = "decoded assignment failed verification"
		}
	case ode.StopTEnd:
		out.reason = "time horizon reached"
	case ode.StopCancelled:
		out.cancelled = true
		out.reason = "cancelled"
	case ode.StopError:
		out.reason = fmt.Sprintf("integration failure: %v", run.Err)
	default:
		out.reason = run.Reason.String()
	}
	if tl != nil {
		// FEvals and refactorizations the per-step hooks cannot see: the
		// function-evaluation totals accumulate in ode.Stats, and the
		// quasi-static form counts its Kirchhoff refactorizations on the
		// engine rather than in the stepper.
		tl.FEvals.Add(int64(stats.FEvals))
		tl.Energy.Add(out.energy)
		if qs, ok := eng.(*circuit.QuasiStatic); ok {
			tl.Refactors.Add(int64(qs.Refacts))
		}
		tl.AttemptWall.Observe(time.Since(wallStart).Seconds())
		ev := obs.Event{Attempt: idx, Member: label, Seed: seed,
			T: out.t, Steps: out.steps, Reason: out.reason}
		switch {
		case out.solved:
			tl.AttemptsConverged.Inc()
			tl.ConvTime.Observe(out.t)
			tl.Conv.Observe(out.t)
			ev.Ev = obs.EvConverged
		case out.cancelled:
			tl.AttemptsCancelled.Inc()
			ev.Ev = obs.EvCancelled
		default:
			tl.AttemptsDiverged.Inc()
			ev.Ev = obs.EvDiverged
		}
		// Post-mortem dump: diverged and cancelled attempts leave their
		// recent-step trajectory as JSONL on the flight sink.
		tl.Flight.Retire(fl, !out.solved)
		tl.Emit(ev)
	}
	return out, nil
}
