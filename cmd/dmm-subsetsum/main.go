// Command dmm-subsetsum solves a subset-sum instance by running the
// paper's subset-sum SOLC (Sec. VII-B) in solution mode and cross-checks
// the answer against the dynamic-programming baseline.
//
// Usage:
//
//	dmm-subsetsum -values 3,5,6 -target 8 [-seed 1] [-tend 150]
//	dmm-subsetsum -values 3,5,9,13 -target 18 -parallel 4 [-deadline 30s]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/classical"
	"repro/internal/core"
	"repro/internal/obs"
)

func main() {
	os.Exit(run())
}

func run() int {
	valuesFlag := flag.String("values", "3,5,6", "comma-separated positive integers")
	target := flag.Uint64("target", 8, "target sum")
	seed := flag.Int64("seed", 1, "initial-condition seed")
	tEnd := flag.Float64("tend", 150, "per-attempt time horizon")
	attempts := flag.Int("attempts", 4, "random restarts")
	parallel := flag.Int("parallel", 1, "concurrently raced restarts (0 = GOMAXPROCS)")
	firstWin := flag.Bool("first-win", false, "first verified winner cancels all attempts")
	deadline := flag.Duration("deadline", 0*time.Second, "wall-clock budget for the whole solve (0 = none)")
	co := obs.BindFlags("dmm-subsetsum", flag.CommandLine)
	flag.Parse()

	var values []uint64
	for _, tok := range strings.Split(*valuesFlag, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(tok), 10, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dmm-subsetsum: bad value %q: %v\n", tok, err)
			return 1
		}
		values = append(values, v)
	}

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
	cfg.Telemetry = co.Telemetry
	ss := core.NewSubsetSum(cfg)
	res, err := ss.Solve(values, *target)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmm-subsetsum:", err)
		return 1
	}
	fmt.Printf("values=%v target=%d  circuit: %s\n", values, *target, res.Metrics)
	if res.Solved {
		var sel []uint64
		for j, v := range values {
			if res.Mask&(1<<uint(j)) != 0 {
				sel = append(sel, v)
			}
		}
		fmt.Printf("self-organized subset: %v (mask %0*b, first verified read-out at t* = %.2f)\n",
			sel, len(values), res.Mask, res.Metrics.ConvergenceTime)
	} else {
		fmt.Printf("no equilibrium reached (%s)\n", res.Reason)
	}
	if _, ok := classical.SubsetSumDP(values, *target); ok != res.Solved {
		fmt.Printf("baseline check: DP says satisfiable=%v — SOLC %s\n", ok,
			map[bool]string{true: "agrees", false: "missed it (try more attempts)"}[res.Solved == ok])
	} else {
		fmt.Println("baseline check: DP agrees")
	}
	if !res.Solved {
		return 2
	}
	return 0
}
