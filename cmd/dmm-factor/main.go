// Command dmm-factor factors an integer by running the paper's
// factorization SOLC (Sec. VII-A) in solution mode.
//
// Usage:
//
//	dmm-factor -n 35 [-seed 1] [-tend 150] [-attempts 4] [-trace] [-check]
//	dmm-factor -n 143 -attempts 8 -parallel 4 [-first-win] [-deadline 30s]
//	dmm-factor -n 35 -portfolio [-telemetry events.jsonl] [-metrics-dump]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/circuit"
	"repro/internal/classical"
	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/solc"
	"repro/internal/trace"
)

func main() {
	os.Exit(run())
}

func run() int {
	n := flag.Uint64("n", 35, "integer to factor (a semiprime fitting the word sizes)")
	seed := flag.Int64("seed", 1, "initial-condition seed")
	tEnd := flag.Float64("tend", 150, "per-attempt time horizon")
	attempts := flag.Int("attempts", 4, "random restarts")
	parallel := flag.Int("parallel", 1, "concurrently raced restarts (0 = GOMAXPROCS)")
	firstWin := flag.Bool("first-win", false, "first verified winner cancels all attempts (fastest, nondeterministic winner)")
	deadline := flag.Duration("deadline", 0*time.Second, "wall-clock budget for the whole solve (0 = none)")
	portfolio := flag.Bool("portfolio", false, "race the heterogeneous solver portfolio (IMEX-capacitive vs RK45-quasistatic)")
	showTrace := flag.Bool("trace", false, "render factor-bit voltage trajectories")
	check := flag.Bool("check", false, "verify runtime invariants per step and post-hoc scan the recorded trace (no build tag needed)")
	co := obs.BindFlags("dmm-factor", flag.CommandLine)
	flag.Parse()

	if err := co.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer func() {
		if err := co.Finish(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
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
	if *portfolio {
		cfg.Portfolio = solc.DefaultPortfolio()
	}
	if *showTrace {
		np, nq := core.WordSizes(core.BitLen(*n))
		cfg.TraceNodes = np + nq
		cfg.TraceEvery = 100
	}
	fz := core.NewFactorizer(cfg)
	res, err := fz.Factor(*n)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmm-factor:", err)
		return 1
	}
	fmt.Printf("n=%d  circuit: %s\n", *n, res.Metrics)
	if res.Solved {
		fmt.Printf("self-organized: %d = %d × %d (t* = %.2f)\n",
			*n, res.P, res.Q, res.Metrics.ConvergenceTime)
		if *parallel != 1 || *portfolio {
			fmt.Printf("pool: launched=%d cancelled=%d\n",
				res.Metrics.Launched, res.Metrics.Cancelled)
		}
	} else {
		fmt.Println(unsolvedNote(*n, res.Reason, *attempts, *tEnd))
	}
	if rec, ok := res.Trace.(*trace.Recorder); ok && rec.Len() > 0 {
		fmt.Println("\nfactor-bit trajectories (−vc..+vc):")
		fmt.Print(rec.RenderASCII(72, -1.2, 1.2))
		if *check {
			vb := circuit.VBoundFactor * cfg.Params.Vc
			viols := invariant.ScanTrace(rec.T, rec.Labels, rec.Series, -vb, vb)
			if len(viols) == 0 {
				fmt.Printf("trace invariant scan: %d samples × %d nodes inside ±%.3g, all finite\n",
					rec.Len(), len(rec.Labels), vb)
			} else {
				for _, v := range viols {
					fmt.Fprintln(os.Stderr, "dmm-factor:", v)
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
// equilibrium, so non-convergence is the expected outcome (Fig. 13); for
// any other n it only means the restart budget ran out.
func unsolvedNote(n uint64, reason string, attempts int, tEnd float64) string {
	if classical.IsPrime(n) {
		return fmt.Sprintf("no equilibrium reached (%s) — expected when n is prime (Fig. 13)", reason)
	}
	return fmt.Sprintf("no equilibrium reached (%s) — %d is not prime, but no verified equilibrium was reached within -attempts %d × -tend %g",
		reason, n, attempts, tEnd)
}
