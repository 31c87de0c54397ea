// Command dmm-bench regenerates the paper's tables and figures (see the
// experiment index in DESIGN.md) and prints them as text tables.
//
// Usage:
//
//	dmm-bench -exp all
//	dmm-bench -exp fig12 -tend 150 -attempts 4 [-check]
//	dmm-bench -exp scaling-factor -bits 6,8 -seeds 4
//	dmm-bench -exp imex-spans -json [-cpuprofile cpu.out] [-memprofile mem.out]
//
// The imex-spans experiment (spans.go) audits the deep-observability
// stack — phase-span profiler plus flight recorder — on the production
// IMEX step of the 6-bit multiplier at h = 1e-3: it gates hot-loop
// overhead < 3% versus the uninstrumented baseline and 0 allocs/step
// (nonzero exit otherwise), emits the per-phase time breakdown of the
// step, and with -json writes BENCH_imex_spans.json.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs/cmdobs"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	exp := flag.String("exp", "all", "experiment id (all, tableI, tableII, fig4, fig7, fig8, fig9, fig10, fig11, fig12, fig13, fig14, fig15, info, scaling-factor, scaling-ssp, ensemble, baselines, energy, sat3, diversity, ablation-c, hsweep, imex-spans)")
	tEnd := flag.Float64("tend", 150, "per-attempt time horizon for dynamical experiments")
	attempts := flag.Int("attempts", 4, "random restarts per instance")
	seeds := flag.Int("seeds", 4, "ensemble size for scaling/ensemble experiments")
	bitsFlag := flag.String("bits", "6,8", "bit widths for scaling-factor")
	parallel := flag.Int("parallel", 0, "worker-pool width for ensembles and raced restarts (0 = GOMAXPROCS)")
	check := flag.Bool("check", false, "verify runtime invariants on every integration step of the dynamical experiments (no build tag needed)")
	jsonOut := flag.Bool("json", false, "also write machine-readable BENCH_<exp>.json (supported: imex-spans)")
	co := cmdobs.BindFlags("dmm-bench", flag.CommandLine)
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
	cfg.TEnd = *tEnd
	cfg.MaxAttempts = *attempts
	cfg.Parallelism = *parallel
	cfg.Verify = *check
	cfg.Telemetry = co.Telemetry

	var bits []int
	for _, tok := range strings.Split(*bitsFlag, ",") {
		b, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			fmt.Fprintf(os.Stderr, "dmm-bench: bad bits %q\n", tok)
			return 1
		}
		bits = append(bits, b)
	}

	static := map[string]func() experiments.Report{
		"info":    func() experiments.Report { return experiments.InformationOverhead([]int{6, 8, 10, 12}) },
		"tableI":  experiments.TableI,
		"tableII": experiments.TableII,
		"fig4":    experiments.Fig4,
		"fig7":    func() experiments.Report { return experiments.Fig7(41) },
		"fig9":    func() experiments.Report { return experiments.Fig9(21) },
		"fig10":   experiments.Fig10,
		"fig11":   func() experiments.Report { return experiments.Fig11Topology(18) },
		"fig14":   func() experiments.Report { return experiments.Fig14Topology(12, 9) },
	}
	dynamic := map[string]func() experiments.Report{
		"fig8": func() experiments.Report { return experiments.Fig8Adder3(cfg, 9, 3) },
		"fig12": func() experiments.Report {
			return experiments.Fig12Factorization(cfg, []uint64{35, 49, 33})
		},
		"fig13": func() experiments.Report {
			c := cfg
			c.TEnd = 20
			c.MaxAttempts = 1
			return experiments.Fig13Prime(c, 47)
		},
		"fig15": func() experiments.Report {
			return experiments.Fig15SubsetSum(cfg, []experiments.SubsetSumInstance{
				{Values: []uint64{3, 5, 6}, Target: 8},
				{Values: []uint64{2, 3, 7, 9}, Target: 12},
			})
		},
		"scaling-factor": func() experiments.Report {
			return experiments.ScalingFactorization(cfg, bits, *seeds)
		},
		"scaling-ssp": func() experiments.Report {
			return experiments.ScalingSubsetSum(cfg, [][2]int{{3, 3}, {4, 3}, {4, 4}}, *seeds)
		},
		"ensemble": func() experiments.Report {
			c := cfg
			c.TEnd = 100
			return experiments.Ensemble(c, 35, *seeds)
		},
		"baselines": func() experiments.Report {
			return experiments.Baselines(cfg, []uint64{15, 21, 35})
		},
		"energy": func() experiments.Report {
			return experiments.EnergyScaling(cfg, bits, *seeds)
		},
		"sat3": func() experiments.Report {
			return experiments.Sat3(cfg, 6, 18, 3)
		},
		"diversity": func() experiments.Report {
			c := cfg
			c.TEnd = 100
			return experiments.SolutionDiversity(c, *seeds*2)
		},
		"ablation-c": func() experiments.Report {
			return experiments.AblationCapacitance([]float64{2e-3, 2e-2, 2e-1}, *seeds)
		},
		"hsweep": func() experiments.Report {
			return experiments.StepSizeSweep([]float64{2e-2, 8e-2},
				[]float64{1e-3, 5e-3, 1e-2, 1.4e-2, 2e-2, 2.8e-2, 4e-2, 0.1, 0.2}, 40)
		},
	}

	// run reports whether id names an experiment and whether it passed
	// (the gated experiments can fail; the report-only ones cannot).
	gated := map[string]func(bool) error{
		"imex-spans": imexSpans,
	}
	run := func(id string) (found, ok bool) {
		if fn, ok := gated[id]; ok {
			if err := fn(*jsonOut); err != nil {
				fmt.Fprintln(os.Stderr, "dmm-bench:", err)
				return true, false
			}
			return true, true
		}
		if fn, ok := static[id]; ok {
			fmt.Println(fn().Render())
			return true, true
		}
		if fn, ok := dynamic[id]; ok {
			fmt.Println(fn().Render())
			return true, true
		}
		return false, false
	}

	if *exp == "all" {
		for _, id := range []string{"tableI", "tableII", "fig4", "fig7", "fig9", "fig10",
			"fig11", "fig14", "info", "fig8", "fig12", "fig13", "fig15",
			"scaling-factor", "scaling-ssp", "ensemble", "baselines",
			"energy", "sat3", "diversity", "ablation-c", "hsweep"} {
			run(id)
		}
		return 0
	}
	found, ok := run(*exp)
	if !found {
		fmt.Fprintf(os.Stderr, "dmm-bench: unknown experiment %q\n", *exp)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}
