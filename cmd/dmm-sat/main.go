// Command dmm-sat solves a DIMACS CNF instance with a self-organizing
// logic circuit (one OR tree per clause, every clause output pinned to
// logic 1) and cross-checks the result against the DPLL baseline.
//
// Usage:
//
//	dmm-sat -f formula.cnf [-tend 150] [-attempts 4] [-seed 1]
//	dmm-sat -random-vars 6 -random-clauses 18
//	dmm-sat -random-vars 8 -random-clauses 24 -parallel 4 -portfolio
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/boolcirc"
	"repro/internal/circuit"
	"repro/internal/obs"
	"repro/internal/sat"
	"repro/internal/solc"
)

func main() {
	os.Exit(run())
}

func run() int {
	file := flag.String("f", "", "DIMACS CNF file (omit to generate a random 3-SAT instance)")
	rv := flag.Int("random-vars", 6, "variables for the random instance")
	rc := flag.Int("random-clauses", 18, "clauses for the random instance")
	seed := flag.Int64("seed", 1, "initial-condition seed")
	tEnd := flag.Float64("tend", 150, "per-attempt time horizon")
	attempts := flag.Int("attempts", 4, "random restarts")
	parallel := flag.Int("parallel", 1, "concurrently raced restarts (0 = GOMAXPROCS)")
	firstWin := flag.Bool("first-win", false, "first verified winner cancels all attempts")
	deadline := flag.Duration("deadline", 0*time.Second, "wall-clock budget for the whole solve (0 = none)")
	portfolio := flag.Bool("portfolio", false, "race the heterogeneous solver portfolio across restarts")
	co := obs.BindFlags("dmm-sat", flag.CommandLine)
	flag.Parse()

	var f boolcirc.CNF
	if *file != "" {
		fh, err := os.Open(*file)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dmm-sat:", err)
			return 1
		}
		f, err = boolcirc.ParseDIMACS(fh)
		fh.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "dmm-sat:", err)
			return 1
		}
	} else {
		rng := rand.New(rand.NewSource(*seed))
		f.NumVars = *rv
		for c := 0; c < *rc; c++ {
			seen := map[int]bool{}
			var clause boolcirc.Clause
			for len(clause) < 3 && len(clause) < *rv {
				v := 1 + rng.Intn(*rv)
				if seen[v] {
					continue
				}
				seen[v] = true
				l := boolcirc.Lit(v)
				if rng.Intn(2) == 0 {
					l = -l
				}
				clause = append(clause, l)
			}
			f.Clauses = append(f.Clauses, clause)
		}
	}
	fmt.Printf("formula: %d variables, %d clauses\n", f.NumVars, len(f.Clauses))

	dp := sat.DPLL(f, 0)
	fmt.Printf("DPLL baseline: %v (%d decisions)\n", dp.Status, dp.Decisions)

	if err := co.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer func() {
		if err := co.Finish(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
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
	var res solc.SATResult
	var err error
	if *portfolio {
		res, err = solc.SolveCNFPortfolio(f, circuit.Default(), solc.DefaultPortfolio(), opts)
	} else {
		res, err = solc.SolveCNF(f, circuit.Default(), opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmm-sat:", err)
		return 1
	}
	if res.Solved {
		fmt.Printf("SOLC: SAT in t* = %.2f (attempts %d, winner %s, wall %v)\nassignment:",
			res.Result.T, res.Result.Attempts, res.Result.WinnerMember, res.Result.Wall)
		for v, val := range res.Assignment {
			lit := v + 1
			if !val {
				lit = -lit
			}
			fmt.Printf(" %d", lit)
		}
		fmt.Println()
		if dp.Status == sat.Unsatisfiable {
			fmt.Println("WARNING: SOLC claims SAT on a DPLL-UNSAT formula (verification bug)")
			return 1
		}
	} else {
		fmt.Printf("SOLC: no equilibrium found (%s)\n", res.Result.Reason)
		if dp.Status == sat.Satisfiable {
			fmt.Println("note: instance is satisfiable; increase -tend/-attempts")
			return 2
		}
	}
	return 0
}
