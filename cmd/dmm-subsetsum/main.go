// Command dmm-subsetsum solves a subset-sum instance by running the
// paper's subset-sum SOLC (Sec. VII-B) in solution mode and cross-checks
// the answer against a classical baseline: dynamic programming, or
// meet-in-the-middle when the DP's tables would not fit baselineBytes.
//
// Usage:
//
//	dmm-subsetsum -values 3,5,6 -target 8 [-seed 1] [-tend 150]
//	dmm-subsetsum -values 3,5,9,13 -target 18 -parallel 4 [-deadline 30s]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/classical"
	"repro/internal/core"
	"repro/internal/obs/cmdobs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and output streams passed in; it
// returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dmm-subsetsum", flag.ContinueOnError)
	fs.SetOutput(stderr)
	valuesFlag := fs.String("values", "3,5,6", "comma-separated positive integers")
	target := fs.Uint64("target", 8, "target sum")
	seed := fs.Int64("seed", 1, "initial-condition seed")
	tEnd := fs.Float64("tend", 150, "per-attempt time horizon")
	attempts := fs.Int("attempts", 4, "random restarts")
	parallel := fs.Int("parallel", 1, "concurrently raced restarts (0 = GOMAXPROCS)")
	firstWin := fs.Bool("first-win", false, "first verified winner cancels all attempts")
	deadline := fs.Duration("deadline", 0*time.Second, "wall-clock budget for the whole solve (0 = none)")
	co := cmdobs.BindFlags("dmm-subsetsum", fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2 // the status flag.ExitOnError uses
	}
	if fs.NArg() > 0 {
		// Parsing stops at the first positional argument, so any flag
		// after it was dropped too.
		fmt.Fprintf(stderr, "dmm-subsetsum: unexpected argument %q: every setting is a flag\n", fs.Arg(0))
		fs.Usage()
		return 2
	}

	var values []uint64
	for _, tok := range strings.Split(*valuesFlag, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(tok), 10, 64)
		if err != nil {
			fmt.Fprintf(stderr, "dmm-subsetsum: bad value %q: %v\n", tok, err)
			return 1
		}
		values = append(values, v)
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
	cfg.Telemetry = co.Telemetry
	ss := core.NewSubsetSum(cfg)
	res, err := ss.Solve(values, *target)
	if err != nil {
		fmt.Fprintln(stderr, "dmm-subsetsum:", err)
		return 1
	}
	fmt.Fprintf(stdout, "values=%v target=%d  circuit: %s\n", values, *target, res.Metrics)
	if res.Solved {
		var sel []uint64
		for j, v := range values {
			if res.Mask&(1<<uint(j)) != 0 {
				sel = append(sel, v)
			}
		}
		fmt.Fprintf(stdout, "self-organized subset: %v (mask %0*b, first verified read-out at t* = %.2f)\n",
			sel, len(values), res.Mask, res.Metrics.ConvergenceTime)
	} else {
		fmt.Fprintf(stdout, "no equilibrium reached (%s)\n", res.Reason)
	}
	switch name, ok, ran := baseline(values, *target); {
	case !ran:
		fmt.Fprintf(stdout, "baseline check: skipped (neither DP nor meet-in-the-middle fits in %d MB)\n", baselineBytes>>20)
	case ok != res.Solved:
		fmt.Fprintf(stdout, "baseline check: %s says satisfiable=%v — SOLC %s\n", name, ok,
			map[bool]string{true: "agrees", false: "missed it (try more attempts)"}[res.Solved == ok])
	default:
		fmt.Fprintf(stdout, "baseline check: %s agrees\n", name)
	}
	if !res.Solved {
		return 2
	}
	return 0
}

// baselineBytes caps the memory of the classical cross-check.
const baselineBytes = 64 << 20

// baseline decides the instance classically within baselineBytes: by
// dynamic programming (17 bytes per sum up to the target) when its
// tables fit, else by meet-in-the-middle (16 bytes per subset of each
// half) when its lists fit. ran is false when neither fits.
func baseline(values []uint64, target uint64) (name string, ok, ran bool) {
	n := len(values)
	switch {
	case target < baselineBytes/17:
		_, ok = classical.SubsetSumDP(values, target)
		return "DP", ok, true
	case 16*(uint64(1)<<(n/2)+uint64(1)<<(n-n/2)) <= baselineBytes:
		_, ok = classical.SubsetSumMITM(values, target)
		return "meet-in-the-middle", ok, true
	}
	return "", false, false
}
