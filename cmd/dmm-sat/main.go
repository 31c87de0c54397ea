// Command dmm-sat solves a DIMACS CNF instance with a self-organizing
// logic circuit (one OR tree per clause, every clause output pinned to
// logic 1) and cross-checks the result against the DPLL baseline.
//
// Usage:
//
//	dmm-sat -f formula.cnf [-tend 150] [-attempts 4] [-seed 1]
//	dmm-sat -random-vars 6 -random-clauses 18
//	dmm-sat -random-vars 8 -random-clauses 24 -parallel 4 [-first-win]
//
// The random instance is 3-SAT: -random-vars must be at least 3 and
// -random-clauses at least 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"repro/internal/boolcirc"
	"repro/internal/circuit"
	"repro/internal/obs/cmdobs"
	"repro/internal/sat"
	"repro/internal/solc"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and output streams passed in; it
// returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dmm-sat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	file := fs.String("f", "", "DIMACS CNF file (omit to generate a random 3-SAT instance)")
	rv := fs.Int("random-vars", 6, "variables for the random instance (at least 3)")
	rc := fs.Int("random-clauses", 18, "clauses for the random instance (at least 1)")
	seed := fs.Int64("seed", 1, "initial-condition seed")
	tEnd := fs.Float64("tend", 150, "per-attempt time horizon")
	attempts := fs.Int("attempts", 4, "random restarts")
	parallel := fs.Int("parallel", 1, "concurrently raced restarts (0 = GOMAXPROCS)")
	firstWin := fs.Bool("first-win", false, "first verified winner cancels all attempts")
	deadline := fs.Duration("deadline", 0*time.Second, "wall-clock budget for the whole solve (0 = none)")
	co := cmdobs.BindFlags("dmm-sat", fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2 // the status flag.ExitOnError uses
	}
	if fs.NArg() > 0 {
		// Parsing stops at the first positional argument, so any flag
		// after it was dropped too.
		fmt.Fprintf(stderr, "dmm-sat: unexpected argument %q: every setting is a flag\n", fs.Arg(0))
		fs.Usage()
		return 2
	}
	if *file == "" && (*rv < 3 || *rc < 1) {
		fmt.Fprintf(stderr, "dmm-sat: a random 3-SAT instance needs -random-vars >= 3 and -random-clauses >= 1, got %d and %d\n", *rv, *rc)
		return 2
	}

	var f boolcirc.CNF
	if *file != "" {
		fh, err := os.Open(*file)
		if err != nil {
			fmt.Fprintln(stderr, "dmm-sat:", err)
			return 1
		}
		f, err = boolcirc.ParseDIMACS(fh)
		fh.Close()
		if err != nil {
			fmt.Fprintln(stderr, "dmm-sat:", err)
			return 1
		}
	} else {
		f = boolcirc.Random3SAT(rand.New(rand.NewSource(*seed)), *rv, *rc)
	}
	fmt.Fprintf(stdout, "formula: %d variables, %d clauses\n", f.NumVars, len(f.Clauses))

	dp := sat.DPLL(f, 0)
	fmt.Fprintf(stdout, "DPLL baseline: %v (%d decisions)\n", dp.Status, dp.Decisions)

	if err := co.Start(); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer func() {
		if err := co.Finish(stdout); err != nil {
			fmt.Fprintln(stderr, err)
		}
	}()

	opts := solc.DefaultOptions()
	opts.Seed = *seed
	opts.TEnd = *tEnd
	opts.MaxAttempts = *attempts
	opts.Parallelism = *parallel
	opts.Deadline = *deadline
	if *firstWin {
		opts.Policy = solc.WinnerFirstDone
	}
	opts.Telemetry = co.Telemetry
	res, err := solc.SolveCNF(f, circuit.Default(), opts)
	if err != nil {
		fmt.Fprintln(stderr, "dmm-sat:", err)
		return 1
	}
	if res.Solved {
		fmt.Fprintf(stdout, "SOLC: SAT, first verified read-out at t* = %.2f (attempts %d, winner %s, wall %v)\nassignment:",
			res.Result.T, res.Result.Attempts, res.Result.WinnerMember, res.Result.Wall)
		for v, val := range res.Assignment {
			lit := v + 1
			if !val {
				lit = -lit
			}
			fmt.Fprintf(stdout, " %d", lit)
		}
		fmt.Fprintln(stdout)
		if dp.Status == sat.Unsatisfiable {
			fmt.Fprintln(stdout, "WARNING: SOLC claims SAT on a DPLL-UNSAT formula (verification bug)")
			return 1
		}
	} else {
		fmt.Fprintf(stdout, "SOLC: no equilibrium found (%s)\n", res.Result.Reason)
		if dp.Status == sat.Satisfiable {
			fmt.Fprintln(stdout, "note: instance is satisfiable; increase -tend/-attempts")
			return 2
		}
	}
	return 0
}
