// Command dmm-factor factors an integer by running the paper's
// factorization SOLC (Sec. VII-A) in solution mode.
//
// Usage:
//
//	dmm-factor -n 35 [-seed 1] [-tend 150] [-attempts 4] [-trace] [-check]
//	dmm-factor -n 143 -attempts 8 -parallel 4 [-first-win] [-deadline 30s]
//	dmm-factor -n 35 [-telemetry events.jsonl] [-metrics-dump]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/circuit"
	"repro/internal/classical"
	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/obs/cmdobs"
	"repro/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and output streams passed in; it
// returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dmm-factor", flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Uint64("n", 35, "integer to factor (a semiprime fitting the word sizes)")
	seed := fs.Int64("seed", 1, "initial-condition seed")
	tEnd := fs.Float64("tend", 150, "per-attempt time horizon")
	attempts := fs.Int("attempts", 4, "random restarts")
	parallel := fs.Int("parallel", 1, "concurrently raced restarts (0 = GOMAXPROCS)")
	firstWin := fs.Bool("first-win", false, "first verified winner cancels all attempts (fastest, nondeterministic winner)")
	deadline := fs.Duration("deadline", 0*time.Second, "wall-clock budget for the whole solve (0 = none)")
	showTrace := fs.Bool("trace", false, "render factor-bit voltage trajectories")
	check := fs.Bool("check", false, "verify runtime invariants per step and post-hoc scan the recorded trace (no build tag needed)")
	co := cmdobs.BindFlags("dmm-factor", fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2 // the status flag.ExitOnError uses
	}
	if fs.NArg() > 0 {
		// Parsing stops at the first positional argument, so any flag
		// after it was dropped too.
		fmt.Fprintf(stderr, "dmm-factor: unexpected argument %q: every setting is a flag\n", fs.Arg(0))
		fs.Usage()
		return 2
	}

	if err := co.Start(); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer func() {
		if err := co.Finish(stdout); err != nil {
			fmt.Fprintln(stderr, err)
		}
	}()

	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	cfg.TEnd = *tEnd
	cfg.MaxAttempts = *attempts
	cfg.Parallelism = *parallel
	cfg.FirstWin = *firstWin
	cfg.Deadline = *deadline
	cfg.Verify = *check
	cfg.Telemetry = co.Telemetry
	if *showTrace {
		np, nq := core.WordSizes(core.BitLen(*n))
		cfg.TraceNodes = np + nq
		cfg.TraceEvery = 100
	}
	fz := core.NewFactorizer(cfg)
	res, err := fz.Factor(*n)
	if err != nil {
		fmt.Fprintln(stderr, "dmm-factor:", err)
		return 1
	}
	fmt.Fprintf(stdout, "n=%d  circuit: %s\n", *n, res.Metrics)
	if res.Solved {
		fmt.Fprintf(stdout, "self-organized: %d = %d × %d (first verified read-out at t* = %.2f)\n",
			*n, res.P, res.Q, res.Metrics.ConvergenceTime)
		if *parallel != 1 {
			fmt.Fprintf(stdout, "pool: launched=%d cancelled=%d\n",
				res.Metrics.Launched, res.Metrics.Cancelled)
		}
	} else {
		fmt.Fprintln(stdout, unsolvedNote(*n, res.Reason, *attempts, *tEnd))
	}
	if rec, ok := res.Trace.(*trace.Recorder); ok && rec.Len() > 0 {
		fmt.Fprintln(stdout, "\nfactor-bit trajectories (−vc..+vc):")
		fmt.Fprint(stdout, rec.RenderASCII(72, -1.2, 1.2))
		if *check {
			vb := circuit.VBoundFactor * cfg.Params.Vc
			viols := invariant.ScanTrace(rec.T, rec.Labels, rec.Series, -vb, vb)
			if len(viols) == 0 {
				fmt.Fprintf(stdout, "trace invariant scan: %d samples × %d nodes inside ±%.3g, all finite\n",
					rec.Len(), len(rec.Labels), vb)
			} else {
				for _, v := range viols {
					fmt.Fprintln(stderr, "dmm-factor:", v)
				}
				return 3
			}
		}
	}
	if !res.Solved {
		return 2
	}
	return 0
}

// unsolvedNote explains an unsolved run. A prime n has no factoring
// equilibrium, so non-convergence is the expected outcome (Fig. 13); nor
// has a composite none of whose factor pairs fits the multiplier's
// words. For any other n it only means the restart budget ran out.
func unsolvedNote(n uint64, reason string, attempts int, tEnd float64) string {
	if classical.IsPrime(n) {
		return fmt.Sprintf("no equilibrium reached (%s) — expected when n is prime (Fig. 13)", reason)
	}
	if np, nq := core.WordSizes(core.BitLen(n)); !pairFits(n, nq) {
		return fmt.Sprintf("no equilibrium reached (%s) — %d is not prime, but no factor pair of it fits the %d-bit × %d-bit words, so no budget can solve it",
			reason, n, np, nq)
	}
	return fmt.Sprintf("no equilibrium reached (%s) — %d is not prime, but no verified equilibrium was reached within -attempts %d × -tend %g",
		reason, n, attempts, tEnd)
}

// pairFits reports whether the composite n has a factor pair p·q that
// the words of its multiplier hold, q in nq bits. For any divisor q ≥ 2,
// p = n/q ≤ n/2 fits the wider word, which has one bit less than n, so
// a pair fits exactly when the least prime factor of n is below 2^nq.
func pairFits(n uint64, nq int) bool {
	return leastPrimeFactor(n) < 1<<nq
}

// leastPrimeFactor returns the least prime factor of n ≥ 2, splitting
// composites with Pollard's rho (trial division where rho fails).
func leastPrimeFactor(n uint64) uint64 {
	if classical.IsPrime(n) {
		return n
	}
	d := classical.PollardRho(n)
	if d == n {
		return classical.TrialDivision(n)
	}
	return min(leastPrimeFactor(d), leastPrimeFactor(n/d))
}
