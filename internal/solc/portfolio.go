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

// Mode names the dynamical form of a PortfolioMember. Its one value is
// ModeCapacitive, the form Compile builds.
type Mode int

// ModeCapacitive is the capacitive form: node voltages as ODE states.
const ModeCapacitive Mode = 0

// PortfolioMember describes the solver configuration a Portfolio races
// its restart attempts on. There is one: the IMEX stepper on the
// capacitive form. The type, Mode and the label exist for the end-to-end
// benchmark in e2ebench, which names them; any other Mode or Stepper
// makes Solve return an error.
type PortfolioMember struct {
	// Mode is the dynamical form: ModeCapacitive (the zero value).
	Mode Mode
	// Stepper is the integration method: "imex", or "" for the same.
	Stepper string
}

// memberLabel names the one solver configuration, "<stepper>-<mode>", in
// events and Result.WinnerMember.
const memberLabel = "imex-capacitive"

// check rejects a member other than the one configuration there is.
func (m PortfolioMember) check() error {
	if m.Mode != ModeCapacitive {
		return fmt.Errorf("solc: unknown mode %d", m.Mode)
	}
	if m.Stepper != "" && m.Stepper != "imex" {
		return fmt.Errorf("solc: unknown stepper %q", m.Stepper)
	}
	return nil
}

// Portfolio races restart attempts of one boolean problem, compiled to
// one solver configuration, on a bounded worker pool.
type Portfolio struct {
	cs     *Compiled
	member PortfolioMember
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
	return &Portfolio{cs: Compile(bc, pins, p), member: members[0]}
}

// Compiled returns the compiled realization of member i, which must be 0.
func (pf *Portfolio) Compiled(i int) *Compiled {
	if i != 0 {
		panic(fmt.Sprintf("solc: portfolio member %d out of range [0, 1)", i))
	}
	return pf.cs
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
// Every attempt k integrates, on a pooled workspace no other running
// attempt holds, the initial condition drawn from Seed + k, so
// trajectories are reproducible regardless of scheduling; the winner
// policy decides which verified equilibrium is returned and which
// running attempts are cancelled (via context) once it can no longer be
// beaten. A non-finite TEnd, H or
// HMax, or a member other than the IMEX stepper on the capacitive form,
// is an error.
func (pf *Portfolio) Solve(opts Options) (Result, error) {
	if err := pf.member.check(); err != nil {
		return Result{}, err
	}
	if err := opts.checkFinite(); err != nil {
		return Result{}, err
	}
	opts = opts.withDefaults()
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
		res.WinnerMember = memberLabel
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

// workspace is the mutable state of one restart attempt on cs: a private
// engine clone, its IMEX stepper (CSR values and SparseLU numerics), the
// state vector, integration counters, the driver with its rejection
// backup, and the RNG. Restarts are a large share of a solve's attempts,
// so an attempt takes a workspace from the pool of cs and returns it
// instead of building one. reset rewrites everything a trajectory reads;
// attempt k therefore depends only on Seed + k, whichever workspace it
// runs on.
type workspace struct {
	cs      *Compiled
	eng     *circuit.Circuit
	stats   ode.Stats
	stepper *circuit.IMEXStepper
	driver  ode.Driver
	rng     *rand.Rand
	x       la.Vector
	nodeV   la.Vector             // Options.Observe's node voltages
	probe   *circuit.PhysicsProbe // built by the first attempt with telemetry
	// verify is the verifyState method value, bound once like the
	// driver's Observe and Stop hooks so an attempt allocates no closure.
	verify func(t float64, x la.Vector) error

	// The running attempt's bindings, read by the hooks.
	stop       func(cs *Compiled, eng circuit.Engine, t float64, x la.Vector) bool
	observe    func(t float64, nodeV la.Vector)
	tl         *obs.Telemetry
	fl         *obs.Flight
	physEvery  int
	obsStep    int
	verifyStep int
}

// newWorkspace builds a workspace over a fresh engine clone of cs.
func newWorkspace(cs *Compiled) (*workspace, error) {
	eng, ok := cs.Eng.Clone().(*circuit.Circuit)
	if !ok {
		return nil, fmt.Errorf("solc: the IMEX stepper needs the capacitive engine, got %T", cs.Eng)
	}
	w := &workspace{
		cs:  cs,
		eng: eng,
		rng: rand.New(rand.NewSource(0)),
		x:   la.NewVector(eng.Dim()),
	}
	w.stepper = circuit.NewIMEX(eng, &w.stats)
	w.driver = ode.Driver{Stepper: w.stepper, Observe: w.observeStep, Stop: w.stopAt}
	w.verify = w.verifyState
	return w, nil
}

// reset binds the workspace to one attempt and draws its initial state
// from seed. rng.Seed replays rand.New(rand.NewSource(seed)) exactly,
// InitialStateInto overwrites all of x, and the counters and energy
// restart at zero; the stepper's and engine's scratch is overwritten
// before every read within a step, so the trajectory reads nothing of
// the previous attempt.
func (w *workspace) reset(ctx context.Context, stop func(*Compiled, circuit.Engine, float64, la.Vector) bool,
	opts Options, seed int64, fl *obs.Flight) {
	tl := opts.Telemetry
	w.stop, w.observe, w.tl, w.fl = stop, opts.Observe, tl, fl
	w.obsStep, w.verifyStep = 0, 0
	w.stats = ode.Stats{}
	w.stepper.ResetEnergy()
	w.stepper.Obs, w.stepper.Spans = tl.StepObsFor(fl), nil
	if tl != nil {
		w.stepper.Spans = tl.Spans
		if w.probe == nil {
			w.probe = circuit.NewPhysicsProbe(w.eng)
		}
		w.physEvery = tl.PhysicsEvery
		if w.physEvery <= 0 {
			w.physEvery = obs.DefaultPhysicsEvery
		}
	}
	d := &w.driver
	d.H, d.HMax, d.TEnd, d.Ctx, d.Obs = opts.H, opts.HMax, opts.TEnd, ctx, tl.StepObsFor(fl)
	d.Verify = nil
	if opts.Verify || invariant.Enabled {
		d.Verify = w.verify
	}
	w.rng.Seed(seed)
	w.eng.InitialStateInto(w.rng, w.x)
}

// release drops the attempt's references (context, callbacks,
// telemetry) so an idle workspace keeps no finished solve alive.
func (w *workspace) release() {
	w.stop, w.observe, w.tl, w.fl = nil, nil, nil, nil
	w.stepper.Obs, w.stepper.Spans = nil, nil
	w.driver.Ctx, w.driver.Obs = nil, nil
}

// observeStep is the driver's Observe hook: clamp the state, then feed
// Options.Observe and the decimated physics probe.
func (w *workspace) observeStep(t float64, x la.Vector) {
	w.eng.ClampState(x)
	if w.observe != nil {
		w.nodeV = w.eng.NodeVoltages(t, x, w.nodeV)
		w.observe(t, w.nodeV)
	}
	if w.tl != nil {
		w.obsStep++
		if w.obsStep%w.physEvery == 0 {
			ps := w.probe.Sample(t, x)
			w.tl.RecordPhysics(ps.SaturatedFrac, ps.MaxDvDt, ps.MaxDxDt, ps.MemHist[:])
			w.fl.Physics(ps.SaturatedFrac, ps.MaxDvDt)
		}
	}
}

// stopAt is the driver's Stop hook.
func (w *workspace) stopAt(t float64, x la.Vector) bool { return w.stop(w.cs, w.eng, t, x) }

// verifyState is the driver's Verify hook when the attempt checks
// invariants.
func (w *workspace) verifyState(t float64, x la.Vector) error {
	w.verifyStep++
	return w.eng.VerifyState(t, w.verifyStep, x)
}

// workspacePool holds the idle attempt workspaces of one Compiled. get
// builds a workspace only when every existing one is in use, so the pool
// never holds more than the most attempts that ever ran at once, and
// repeated solves of one compile reuse them too.
type workspacePool struct {
	mu   sync.Mutex
	idle []*workspace
}

// get takes an idle workspace, or builds one over cs.
func (p *workspacePool) get(cs *Compiled) (*workspace, error) {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		w := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return w, nil
	}
	p.mu.Unlock()
	return newWorkspace(cs)
}

// put returns w to the pool.
func (p *workspacePool) put(w *workspace) {
	w.release()
	p.mu.Lock()
	p.idle = append(p.idle, w)
	p.mu.Unlock()
}

// runAttempt integrates restart attempt idx on a pooled workspace and
// classifies the outcome. The workspace is the attempt's alone until it
// returns it, so attempts are data-race free by construction.
func (pf *Portfolio) runAttempt(ctx context.Context, idx int, opts Options) (attemptOut, error) {
	cs := pf.cs
	w, err := cs.pool.get(cs)
	if err != nil {
		return attemptOut{}, err
	}
	defer cs.pool.put(w)

	stop := pf.stop
	if stop == nil {
		stop = (*Compiled).readOut
	}
	tl := opts.Telemetry
	seed := opts.Seed + int64(idx)
	// One flight ring per attempt: the attempt goroutine is the single
	// writer (driver hook and stepper hook share it), dumped on
	// divergence/cancellation below. Nil-safe throughout when the
	// recorder (or telemetry entirely) is off.
	fl := tl.FlightFor(idx)
	if tl != nil {
		tl.AttemptsLaunched.Inc()
		tl.Emit(obs.Event{Ev: obs.EvLaunched, Attempt: idx, Member: memberLabel, Seed: seed})
	}
	//dmmvet:allow detflow — wall-clock telemetry only (attempt duration in the trace); the trajectory reads only Seed+k state
	wallStart := time.Now()

	w.reset(ctx, stop, opts, seed, fl)
	run := w.driver.Run(w.eng, 0, w.x)

	out := attemptOut{launched: true, t: run.T, steps: w.stats.Steps, fevals: w.stats.FEvals,
		energy: w.stepper.Energy()}
	switch run.Reason {
	case ode.StopCondition:
		assign := cs.decodeWith(w.eng, run.T, w.x)
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
		// The function-evaluation totals the per-step hooks cannot see
		// accumulate in ode.Stats.
		tl.FEvals.Add(int64(w.stats.FEvals))
		tl.Energy.Add(out.energy)
		tl.AttemptWall.Observe(time.Since(wallStart).Seconds())
		ev := obs.Event{Attempt: idx, Member: memberLabel, Seed: seed,
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
