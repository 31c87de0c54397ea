// Command dmm-bench regenerates the paper's tables and figures (see the
// experiment index in DESIGN.md) and prints them as text tables.
//
// Usage:
//
//	dmm-bench -exp all
//	dmm-bench -exp fig12 -tend 150 -attempts 4 [-check] [-dense]
//	dmm-bench -exp scaling-factor -bits 6,8 -seeds 4
//	dmm-bench -exp imex-sparse -json [-cpuprofile cpu.out] [-memprofile mem.out]
//
// The imex-sparse experiment benchmarks the sparse symbolic-once voltage
// solve against the dense fallback on the 6-bit multiplier and, with
// -json, writes the machine-readable BENCH_imex_sparse.json. The
// imex-ladder experiment (ladder.go) measures the shifted-factor cache
// with stale-factor refinement against the refactor-on-drift baseline,
// checks trajectory and assignment equivalence, gates on
// refactors/steps ≤ 5% and 0 allocs/step (nonzero exit otherwise), and
// with -json writes BENCH_imex_ladder.json. The imex-spans experiment
// (spans.go) audits the deep-observability stack — phase-span profiler
// plus flight recorder — gating hot-loop overhead < 3% versus the
// uninstrumented baseline and 0 allocs/step, emits the per-phase time
// breakdown of the IMEX step, and with -json writes
// BENCH_imex_spans.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/boolcirc"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/ode"
	"repro/internal/solc"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	exp := flag.String("exp", "all", "experiment id (all, tableI, tableII, fig4, fig7, fig8, fig9, fig10, fig11, fig12, fig13, fig14, fig15, info, scaling-factor, scaling-ssp, ensemble, baselines, energy, sat3, diversity, ablation-c, imex-sparse, imex-ladder, imex-spans)")
	tEnd := flag.Float64("tend", 150, "per-attempt time horizon for dynamical experiments")
	attempts := flag.Int("attempts", 4, "random restarts per instance")
	seeds := flag.Int("seeds", 4, "ensemble size for scaling/ensemble experiments")
	bitsFlag := flag.String("bits", "6,8", "bit widths for scaling-factor")
	parallel := flag.Int("parallel", 0, "worker-pool width for ensembles and raced restarts (0 = GOMAXPROCS)")
	check := flag.Bool("check", false, "verify runtime invariants on every integration step of the dynamical experiments (no build tag needed)")
	dense := flag.Bool("dense", false, "use the dense-LU voltage solve instead of the sparse symbolic-once default (A/B comparison)")
	hladder := flag.Float64("hladder", 0, "step-size ladder ratio: quantize h onto the geometric grid ratio^k and reuse cached shifted factors (0 = off; 1.1892 = 2^(1/4) recommended)")
	factorCache := flag.Int("factor-cache", 0, "IMEX shifted-factor cache capacity in step-size rungs (0 = default 4)")
	jsonOut := flag.Bool("json", false, "also write machine-readable BENCH_<exp>.json (supported: imex-sparse, imex-ladder, imex-spans)")
	co := obs.BindFlags("dmm-bench", flag.CommandLine)
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
	cfg.Dense = *dense
	cfg.HLadder = *hladder
	cfg.FactorCache = *factorCache
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
	}

	// run reports whether id names an experiment and whether it passed
	// (the gated experiments can fail; the report-only ones cannot).
	gated := map[string]func(bool) error{
		"imex-sparse": imexSparse,
		"imex-ladder": imexLadder,
		"imex-spans":  imexSpans,
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
			"energy", "sat3", "diversity", "ablation-c"} {
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

// pathStats is one solver path's measurements in BENCH_imex_sparse.json.
type pathStats struct {
	// NsPerStep, AllocsPerStep, BytesPerStep are steady-state per-IMEX-step
	// costs from testing.Benchmark.
	NsPerStep     int64 `json:"ns_per_step"`
	AllocsPerStep int64 `json:"allocs_per_step"`
	BytesPerStep  int64 `json:"bytes_per_step"`
	// SolveWallNs, Steps, Refactors cover one fixed-horizon integration.
	SolveWallNs int64 `json:"solve_wall_ns"`
	Steps       int   `json:"steps"`
	Refactors   int   `json:"refactors"`
}

// imexBench is the BENCH_imex_sparse.json document.
type imexBench struct {
	Name      string    `json:"name"`
	Instance  string    `json:"instance"`
	Gates     int       `json:"gates"`
	StateDim  int       `json:"state_dim"`
	NV        int       `json:"nv"`
	NNZ       int       `json:"nnz"`
	FactorNNZ int       `json:"factor_nnz"`
	Sparse    pathStats `json:"sparse"`
	Dense     pathStats `json:"dense"`
	Speedup   float64   `json:"speedup"`
}

// mult6 compiles the 6-bit multiplier SOLC (12-bit product pinned to
// 2021 = 43 × 47) — the instance bench_test.go's BenchmarkIMEXStep pair
// measures.
func mult6() *circuit.Circuit {
	bc := boolcirc.New()
	p := bc.NewSignals(6)
	q := bc.NewSignals(6)
	prod := bc.Multiplier(p, q)
	pins := map[boolcirc.Signal]bool{}
	for i, s := range prod {
		pins[s] = 2021&(1<<uint(i)) != 0
	}
	return solc.Compile(bc, pins, circuit.Default()).Eng.(*circuit.Circuit)
}

// measurePath benchmarks one solver path: steady-state per-step cost plus
// one fixed-horizon integration (20k steps of h = 1e-3).
func measurePath(dense bool) pathStats {
	var st pathStats
	res := testing.Benchmark(func(b *testing.B) {
		c := mult6()
		x := c.InitialState(rand.New(rand.NewSource(1)))
		s := circuit.NewIMEX(c, nil)
		s.Dense = dense
		h := 1e-3
		if _, err := s.Step(c, 0, h, x); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Step(c, float64(i+1)*h, h, x); err != nil {
				b.Fatal(err)
			}
			c.ClampState(x)
		}
	})
	st.NsPerStep = res.NsPerOp()
	st.AllocsPerStep = res.AllocsPerOp()
	st.BytesPerStep = res.AllocedBytesPerOp()

	c := mult6()
	x := c.InitialState(rand.New(rand.NewSource(1)))
	stats := &ode.Stats{}
	s := circuit.NewIMEX(c, stats)
	s.Dense = dense
	h := 1e-3
	start := time.Now()
	for i := 0; i < 20000; i++ {
		if _, err := s.Step(c, float64(i)*h, h, x); err != nil {
			break
		}
		c.ClampState(x)
	}
	st.SolveWallNs = time.Since(start).Nanoseconds()
	st.Steps = stats.Steps
	st.Refactors = stats.Refactors
	return st
}

// imexSparse runs the sparse-vs-dense voltage-solve comparison on the
// 6-bit multiplier, prints a table, and optionally writes
// BENCH_imex_sparse.json.
func imexSparse(writeJSON bool) error {
	c := mult6()
	nv, nnz := c.NNZ()
	doc := imexBench{
		Name:      "imex_sparse",
		Instance:  "6-bit multiplier (12-bit product pinned to 2021 = 43*47)",
		Gates:     c.NumGates(),
		StateDim:  c.Dim(),
		NV:        nv,
		NNZ:       nnz,
		FactorNNZ: c.FactorNNZ(),
		Sparse:    measurePath(false),
		Dense:     measurePath(true),
	}
	doc.Speedup = float64(doc.Dense.NsPerStep) / float64(doc.Sparse.NsPerStep)

	fmt.Printf("IMEX voltage solve: sparse symbolic-once vs dense LU\n")
	fmt.Printf("instance: %s\n", doc.Instance)
	fmt.Printf("gates=%d state_dim=%d nv=%d nnz=%d factor_nnz=%d\n\n",
		doc.Gates, doc.StateDim, doc.NV, doc.NNZ, doc.FactorNNZ)
	fmt.Printf("%-8s %14s %10s %12s %14s %8s %10s\n",
		"path", "ns/step", "allocs/op", "B/op", "solve wall", "steps", "refactors")
	for _, row := range []struct {
		name string
		p    pathStats
	}{{"sparse", doc.Sparse}, {"dense", doc.Dense}} {
		fmt.Printf("%-8s %14d %10d %12d %14s %8d %10d\n",
			row.name, row.p.NsPerStep, row.p.AllocsPerStep, row.p.BytesPerStep,
			time.Duration(row.p.SolveWallNs).Round(time.Millisecond), row.p.Steps, row.p.Refactors)
	}
	fmt.Printf("\nspeedup (dense/sparse ns per step): %.2fx\n", doc.Speedup)

	if writeJSON {
		out, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		name := "BENCH_imex_sparse.json"
		if err := os.WriteFile(name, append(out, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", name)
	}
	return nil
}
