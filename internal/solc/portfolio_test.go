package solc

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/boolcirc"
	"repro/internal/circuit"
	"repro/internal/la"
	"repro/internal/obs"
)

// unsatProblem is AND(a, const-0) pinned to 1: no assignment satisfies it,
// so every restart attempt runs to its time horizon.
func unsatProblem() (*boolcirc.Circuit, map[boolcirc.Signal]bool) {
	bc := boolcirc.New()
	a := bc.NewSignal()
	o := bc.And(a, bc.Const(false))
	return bc, map[boolcirc.Signal]bool{o: true}
}

// factor15Problem is the 3-bit × 2-bit multiplier with its product pinned
// to 15 = 5 × 3: small, but unlike a single gate it has restarts that
// wander to the horizon.
func factor15Problem() (*boolcirc.Circuit, map[boolcirc.Signal]bool) {
	return productProblem(15, 3, 2)
}

// productProblem is the np-bit × nq-bit multiplier with its product
// pinned to n.
func productProblem(n uint64, np, nq int) (*boolcirc.Circuit, map[boolcirc.Signal]bool) {
	bc := boolcirc.New()
	prod := bc.Multiplier(bc.NewSignals(np), bc.NewSignals(nq))
	pins := make(map[boolcirc.Signal]bool, len(prod))
	for i, sig := range prod {
		pins[sig] = n&(1<<uint(i)) != 0
	}
	return bc, pins
}

// horizonSeed is a restart seed on which factor15Problem's attempt runs
// to the fixtures' horizon (TEnd = 5; it is still unsolved at t = 20)
// without a verified read-out, while seed horizonSeed+1 reads out a
// solution at t ≈ 1. A solve seeded with it therefore fails attempt 0
// and wins attempt 1 at every Parallelism under the default
// WinnerLowestAttempt policy; TestHandicapMemberFails pins both halves.
const horizonSeed = 13

// fixturePortfolio compiles factor15Problem to the production
// configuration.
func fixturePortfolio() *Portfolio {
	bc, pins := factor15Problem()
	return CompilePortfolio(bc, pins, circuit.Default(), []PortfolioMember{{Mode: ModeCapacitive, Stepper: "imex"}})
}

// fixtureOptions are the fixtures' solve options: four attempts to the
// horizon TEnd = 5, seeded so that attempt 0 fails and attempt 1 wins.
func fixtureOptions(parallelism int) Options {
	opts := DefaultOptions()
	opts.TEnd = 5
	opts.MaxAttempts = 4
	opts.Seed = horizonSeed
	opts.Parallelism = parallelism
	return opts
}

// TestHandicapMemberFails runs the fixtures' first two attempts alone:
// seed horizonSeed must end at the horizon, never by a read-out, and
// seed horizonSeed+1 must solve, so the portfolio tests' "attempt 1
// wins" holds by construction rather than by scheduling.
func TestHandicapMemberFails(t *testing.T) {
	pf := fixturePortfolio()
	opts := fixtureOptions(1)
	opts.MaxAttempts = 1
	res, err := pf.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Solved || res.Reason != "time horizon reached" || res.T < opts.TEnd {
		t.Fatalf("seed %d: solved=%v reason=%q t=%g, want the horizon TEnd = %g reached unsolved",
			opts.Seed, res.Solved, res.Reason, res.T, opts.TEnd)
	}
	opts.Seed++
	if res, err = pf.Solve(opts); err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("seed %d: %s, want a verified read-out before TEnd = %g", opts.Seed, res.Reason, opts.TEnd)
	}
}

func solveFixture(t *testing.T, parallelism int) Result {
	t.Helper()
	res, err := fixturePortfolio().Solve(fixtureOptions(parallelism))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestParallelDeterminism is the seed-derivation contract: with the default
// WinnerLowestAttempt policy, the winning attempt, its seed, the bits of
// t*, the decoded assignment and the effort totals (steps, function
// evaluations, the bits of the energy) are identical whether restarts
// run sequentially or race on four workers, where the winner cancels
// attempts 2 and 3 wherever they are.
func TestParallelDeterminism(t *testing.T) {
	seq := solveFixture(t, 1)
	par := solveFixture(t, 4)
	if !seq.Solved || !par.Solved {
		t.Fatalf("solved: sequential=%v parallel=%v", seq.Solved, par.Solved)
	}
	if seq.WinnerAttempt != par.WinnerAttempt {
		t.Fatalf("winner attempt: sequential=%d parallel=%d", seq.WinnerAttempt, par.WinnerAttempt)
	}
	if seq.Attempts != par.Attempts {
		t.Fatalf("attempts: sequential=%d parallel=%d", seq.Attempts, par.Attempts)
	}
	if seq.WinnerSeed != par.WinnerSeed {
		t.Fatalf("winner seed: sequential=%d parallel=%d", seq.WinnerSeed, par.WinnerSeed)
	}
	if seq.WinnerMember != par.WinnerMember {
		t.Fatalf("winner member: sequential=%q parallel=%q", seq.WinnerMember, par.WinnerMember)
	}
	if math.Float64bits(seq.T) != math.Float64bits(par.T) {
		t.Fatalf("t*: sequential=%v parallel=%v", seq.T, par.T)
	}
	if seq.Steps != par.Steps || seq.FEvals != par.FEvals ||
		math.Float64bits(seq.Energy) != math.Float64bits(par.Energy) {
		t.Fatalf("effort totals: sequential steps=%d fevals=%d energy=%v, parallel steps=%d fevals=%d energy=%v",
			seq.Steps, seq.FEvals, seq.Energy, par.Steps, par.FEvals, par.Energy)
	}
	if len(seq.Assignment) != len(par.Assignment) {
		t.Fatalf("assignment lengths differ: %d vs %d", len(seq.Assignment), len(par.Assignment))
	}
	for s := range seq.Assignment {
		if seq.Assignment[s] != par.Assignment[s] {
			t.Fatalf("assignment differs at signal %d: sequential=%v parallel=%v",
				s, seq.Assignment[s], par.Assignment[s])
		}
	}
	// Attempt 0 must have reached the horizon, making attempt 1 the winner.
	if seq.WinnerAttempt != 1 || seq.WinnerMember != "imex-capacitive" {
		t.Fatalf("expected imex-capacitive to win attempt 1, got attempt %d member %q",
			seq.WinnerAttempt, seq.WinnerMember)
	}
}

// TestEffortTotalsSkipCancelledAttempts pins the effort totals when the
// winner does cancel running attempts: a verified read-out waits until
// all four attempts have launched, so attempts 2 and 3 are running when
// attempt 1 wins and stop wherever its cancellation finds them. The
// waiting does not touch a trajectory. Steps, FEvals and the bits of
// Energy must still equal the sequential solve's.
func TestEffortTotalsSkipCancelledAttempts(t *testing.T) {
	seq := solveFixture(t, 1)
	pf := fixturePortfolio()
	opts := fixtureOptions(4)
	opts.Telemetry = obs.NewTelemetry()
	pf.stop = func(cs *Compiled, eng *circuit.Circuit, tt float64, x la.Vector) bool {
		ok := cs.readOut(eng, tt, x)
		for deadline := time.Now().Add(10 * time.Second); ok && opts.Telemetry.AttemptsLaunched.Value() < 4; {
			if time.Now().After(deadline) {
				t.Error("attempts 2 and 3 never launched")
				break
			}
			time.Sleep(time.Millisecond)
		}
		return ok
	}
	par, err := pf.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if par.Launched != 4 || par.WinnerAttempt != 1 {
		t.Fatalf("launched %d, winner %d; want 4 launched and attempt 1 winning", par.Launched, par.WinnerAttempt)
	}
	if seq.Steps != par.Steps || seq.FEvals != par.FEvals ||
		math.Float64bits(seq.Energy) != math.Float64bits(par.Energy) {
		t.Fatalf("effort totals: sequential steps=%d fevals=%d energy=%v, parallel steps=%d fevals=%d energy=%v",
			seq.Steps, seq.FEvals, seq.Energy, par.Steps, par.FEvals, par.Energy)
	}
}

// TestWinnerSeedReproduces replays the winning attempt alone: seeding a
// single-attempt solve with Result.WinnerSeed must reproduce the winning
// assignment on attempt 0.
func TestWinnerSeedReproduces(t *testing.T) {
	bc, pins, _ := xorProblem(true)
	cs := Compile(bc, pins, circuit.Default())
	opts := DefaultOptions()
	opts.TEnd = 100
	opts.MaxAttempts = 3
	res, err := cs.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("not solved: %s", res.Reason)
	}
	replay := DefaultOptions()
	replay.TEnd = 100
	replay.MaxAttempts = 1
	replay.Seed = res.WinnerSeed
	res2, err := cs.Solve(replay)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Solved || res2.WinnerAttempt != 0 {
		t.Fatalf("replay of seed %d: solved=%v winner=%d", res.WinnerSeed, res2.Solved, res2.WinnerAttempt)
	}
	for s := range res.Assignment {
		if res.Assignment[s] != res2.Assignment[s] {
			t.Fatalf("replay assignment differs at signal %d", s)
		}
	}
}

// TestParallelRaceStress integrates eight cloned circuits concurrently on an
// unsatisfiable problem, so every attempt runs its full horizon. Run under
// `go test -race` this is the data-race check for Circuit.Clone, the shared
// pool, and the aggregation path.
func TestParallelRaceStress(t *testing.T) {
	bc, pins := unsatProblem()
	cs := Compile(bc, pins, circuit.Default())
	opts := DefaultOptions()
	opts.TEnd = 3
	opts.MaxAttempts = 8
	opts.Parallelism = 4
	res, err := cs.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Solved {
		t.Fatal("unsatisfiable problem reported as solved")
	}
	if res.Launched != 8 || res.Attempts != 8 {
		t.Fatalf("launched=%d attempts=%d, want 8/8", res.Launched, res.Attempts)
	}
	if res.Cancelled != 0 {
		t.Fatalf("no attempt should be cancelled without a winner, got %d", res.Cancelled)
	}
	if res.Steps == 0 || res.FEvals == 0 {
		t.Fatalf("aggregate counters empty: steps=%d fevals=%d", res.Steps, res.FEvals)
	}
}

// TestConcurrentSolvesRace shares one compiled portfolio between two
// goroutines calling Solve at once — the dmm-serve shape, where request
// handlers reuse the compiled circuit and each attempt takes its own
// workspace from the compile's pool. Under `go test -race` this guards
// the read-only compile state and the workspace pool against a
// concurrent solve, and since attempt 0 fails by
// construction both callers must land on the same deterministic winner.
func TestConcurrentSolvesRace(t *testing.T) {
	pf := fixturePortfolio()
	opts := fixtureOptions(2)
	var wg sync.WaitGroup
	results := make([]Result, 2)
	errs := make([]error, 2)
	for k := range results {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			results[k], errs[k] = pf.Solve(opts)
		}(k)
	}
	wg.Wait()
	for k := range results {
		if errs[k] != nil {
			t.Fatal(errs[k])
		}
		if !results[k].Solved {
			t.Fatalf("caller %d not solved: %s", k, results[k].Reason)
		}
	}
	if results[0].WinnerAttempt != results[1].WinnerAttempt ||
		results[0].WinnerSeed != results[1].WinnerSeed {
		t.Fatalf("concurrent solves diverged: attempt %d/%d seed %d/%d",
			results[0].WinnerAttempt, results[1].WinnerAttempt,
			results[0].WinnerSeed, results[1].WinnerSeed)
	}
}

// TestCompilePortfolioOneMember pins the single-configuration contract:
// CompilePortfolio rejects zero or several members, and Compiled has
// only index 0.
func TestCompilePortfolioOneMember(t *testing.T) {
	bc, pins, _ := xorProblem(true)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("no members", func() { CompilePortfolio(bc, pins, circuit.Default(), nil) })
	two := []PortfolioMember{{Mode: ModeCapacitive}, {Stepper: "imex"}}
	mustPanic("two members", func() { CompilePortfolio(bc, pins, circuit.Default(), two) })
	mustPanic("Compiled(1)", func() { fixturePortfolio().Compiled(1) })
}

// TestFirstDonePolicy checks the nondeterministic racing policy still
// returns a verified assignment and accounts for cancelled attempts.
func TestFirstDonePolicy(t *testing.T) {
	bc, pins, _ := xorProblem(true)
	cs := Compile(bc, pins, circuit.Default())
	opts := DefaultOptions()
	opts.TEnd = 100
	opts.MaxAttempts = 4
	opts.Parallelism = 4
	opts.Policy = WinnerFirstDone
	res, err := cs.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("not solved: %s", res.Reason)
	}
	if res.WinnerAttempt < 0 || res.WinnerAttempt >= 4 {
		t.Fatalf("winner attempt %d out of range", res.WinnerAttempt)
	}
	if !bc.Satisfied(res.Assignment) {
		t.Fatal("winning assignment does not satisfy the circuit")
	}
	if res.WinnerSeed != opts.Seed+int64(res.WinnerAttempt) {
		t.Fatalf("winner seed %d inconsistent with attempt %d", res.WinnerSeed, res.WinnerAttempt)
	}
}

// TestDeadlineCancelsAttempts bounds an unsolvable solve by wall clock:
// the pool must come back quickly with the in-flight attempts cancelled.
func TestDeadlineCancelsAttempts(t *testing.T) {
	bc, pins := unsatProblem()
	cs := Compile(bc, pins, circuit.Default())
	opts := DefaultOptions()
	opts.TEnd = 1e6 // far beyond any wall-clock budget
	opts.MaxAttempts = 4
	opts.Parallelism = 2
	opts.Deadline = 50 * time.Millisecond
	start := time.Now()
	res, err := cs.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline ignored: solve took %v", elapsed)
	}
	if res.Solved {
		t.Fatal("unsatisfiable problem reported as solved")
	}
	if res.Reason != "deadline exceeded" {
		t.Fatalf("reason = %q, want \"deadline exceeded\"", res.Reason)
	}
	if res.Cancelled == 0 {
		t.Fatal("expected at least one cancelled attempt")
	}
}

// TestSolveCancelledContext feeds an already-cancelled context: nothing
// may launch and the result must say so.
func TestSolveCancelledContext(t *testing.T) {
	bc, pins, _ := xorProblem(true)
	cs := Compile(bc, pins, circuit.Default())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := DefaultOptions()
	opts.Ctx = ctx
	res, err := cs.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Solved {
		t.Fatal("cancelled solve reported as solved")
	}
	if res.Launched != 0 {
		t.Fatalf("launched %d attempts under a cancelled context", res.Launched)
	}
	if res.Reason != "cancelled" {
		t.Fatalf("reason = %q, want \"cancelled\"", res.Reason)
	}
}

// TestObserveForcesSequential confirms a trajectory callback is never run
// concurrently: a non-nil Observe degrades the pool to one worker even when
// Parallelism asks for more, keeping user callbacks race-free.
func TestObserveForcesSequential(t *testing.T) {
	bc, pins := unsatProblem()
	cs := Compile(bc, pins, circuit.Default())
	opts := DefaultOptions()
	opts.TEnd = 2
	opts.MaxAttempts = 3
	opts.Parallelism = 4
	var active int32
	calls := 0
	opts.Observe = func(float64, la.Vector) {
		if atomic.AddInt32(&active, 1) != 1 {
			t.Error("Observe entered concurrently")
		}
		calls++
		atomic.AddInt32(&active, -1)
	}
	res, err := cs.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Launched != 3 {
		t.Fatalf("launched %d attempts, want 3", res.Launched)
	}
	if calls == 0 {
		t.Fatal("Observe never called")
	}
}

// settleStop is the stop predicate attempts used before the read-out
// criterion: past the input ramp, every node within 2% of ±vc and every
// gate satisfied (circuit.Converged).
func settleStop(_ *Compiled, eng *circuit.Circuit, t float64, x la.Vector) bool {
	return t > eng.Params.TRise && eng.Converged(t, x, 0.02)
}

// TestReadOutStopNeverLater replays the same seeded solves under the old
// settle-band stop and the first-verified-read-out stop. The predicates
// never touch the state and Converged implies GatesSatisfied, so every
// attempt follows the same trajectory and can only stop at the same step
// or earlier: Steps and Attempts never increase, a solve that settled
// still solves, and on the same winning attempt t* never grows.
func TestReadOutStopNeverLater(t *testing.T) {
	type instance struct {
		name string
		bc   *boolcirc.Circuit
		pins map[boolcirc.Signal]bool
	}
	var insts []instance
	bc, pins, _ := xorProblem(true)
	insts = append(insts, instance{"xor", bc, pins})
	fa := boolcirc.New()
	a, b, cin := fa.NewSignal(), fa.NewSignal(), fa.NewSignal()
	s, cout := fa.FullAdder(a, b, cin)
	insts = append(insts, instance{"full-adder", fa, map[boolcirc.Signal]bool{s: false, cout: true}})
	mul, mpins := factor15Problem()
	insts = append(insts, instance{"factor-15", mul, mpins})
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < 2; k++ {
		f := boolcirc.CNF{NumVars: 5}
		for c := 0; c < 13; c++ {
			perm := rng.Perm(5)
			var cl boolcirc.Clause
			for _, v := range perm[:3] {
				l := boolcirc.Lit(v + 1)
				if rng.Intn(2) == 0 {
					l = -l
				}
				cl = append(cl, l)
			}
			f.Clauses = append(f.Clauses, cl)
		}
		sbc, _, outs, err := boolcirc.FromCNF(f)
		if err != nil {
			t.Fatal(err)
		}
		spins := make(map[boolcirc.Signal]bool)
		for _, o := range outs {
			spins[o] = true
		}
		insts = append(insts, instance{"3sat", sbc, spins})
	}
	for _, in := range insts {
		cs := Compile(in.bc, in.pins, circuit.Default())
		for seed := int64(1); seed <= 2; seed++ {
			opts := DefaultOptions()
			// The horizon falls between the first 3-SAT instance's seed-1
			// read-out (t = 9.64) and its settle (t = 9.89), so the replay
			// includes a restart that the read-out stop saves.
			opts.TEnd = 9.7
			opts.MaxAttempts = 4
			opts.Parallelism = 1
			opts.Seed = seed
			settle := &Portfolio{cs: cs, stop: settleStop}
			old, err := settle.Solve(opts)
			if err != nil {
				t.Fatal(err)
			}
			cur, err := cs.Solve(opts)
			if err != nil {
				t.Fatal(err)
			}
			if cur.Steps > old.Steps || cur.Attempts > old.Attempts || (old.Solved && !cur.Solved) {
				t.Fatalf("%s seed %d: read-out stop steps=%d attempts=%d solved=%v, settle stop steps=%d attempts=%d solved=%v",
					in.name, seed, cur.Steps, cur.Attempts, cur.Solved, old.Steps, old.Attempts, old.Solved)
			}
			if old.Solved && cur.WinnerAttempt == old.WinnerAttempt && cur.T > old.T {
				t.Fatalf("%s seed %d: t* %g under the read-out stop, %g under the settle stop", in.name, seed, cur.T, old.T)
			}
			t.Logf("%s seed %d: steps %d -> %d, attempts %d -> %d, t* %.3g -> %.3g",
				in.name, seed, old.Steps, cur.Steps, old.Attempts, cur.Attempts, old.T, cur.T)
		}
	}
}
