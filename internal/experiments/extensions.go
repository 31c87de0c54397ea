package experiments

import (
	"math"
	"math/rand"

	"repro/internal/boolcirc"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dmm"
	"repro/internal/obs"
	"repro/internal/sat"
	"repro/internal/solc"
)

// EnergyScaling measures the dissipated energy to solution against
// problem size (Sec. VI-I: energy grows polynomially with SOLC size).
func EnergyScaling(cfg core.Config, bitWidths []int, seeds int) Report {
	rep := Report{
		ID:      "energy",
		Title:   "Dissipated energy to solution vs problem size (Sec. VI-I)",
		Headers: []string{"nn", "n", "gates", "median t*", "median energy", "energy/gate"},
	}
	for _, nn := range bitWidths {
		n := semiprimeForBits(nn)
		if n == 0 {
			continue
		}
		var times, energies []float64
		var gates int
		for s := 0; s < seeds; s++ {
			c := cfg
			c.Seed = int64(s + 1)
			fz := core.NewFactorizer(c)
			res, err := fz.Factor(n)
			if err != nil {
				continue
			}
			gates = res.Metrics.Gates
			if res.Solved {
				times = append(times, res.Metrics.ConvergenceTime)
				energies = append(energies, res.Metrics.Energy)
			}
		}
		eg := 0.0
		if gates > 0 {
			eg = median(energies) / float64(gates)
		}
		rep.Rows = append(rep.Rows, []string{
			f("%d", nn), f("%d", n), f("%d", gates),
			f("%.1f", median(times)), f("%.3g", median(energies)), f("%.3g", eg),
		})
	}
	rep.Notes = append(rep.Notes,
		"energy = ∫Σ g·d² dt over all DCM branches; the paper's claim is polynomial growth in SOLC size")
	return rep
}

// InformationOverhead reports the Sec. III-E / IV-C information measures
// for the factorization machines.
func InformationOverhead(bitWidths []int) Report {
	rep := Report{
		ID:      "info",
		Title:   "Information overhead and accessible information (Secs. III-E, IV-C)",
		Headers: []string{"nn", "memprocessors", "I_O (Eq. 3)", "I_A DMM (bits)", "I_A PTM (bits)"},
	}
	for _, nn := range bitWidths {
		bc, _, _, _ := core.BuildCircuit(1<<uint(nn-1), nn)
		m := bc.NumSignals()
		io := dmm.InformationOverhead(bc, nn)
		da, pa := dmm.AccessibleInformation(m)
		rep.Rows = append(rep.Rows, []string{
			f("%d", nn), f("%d", m), f("%.3f", io), f("%.0f", da), f("%.2f", pa),
		})
	}
	rep.Notes = append(rep.Notes,
		"the DMM explores 2^m configurations per step against the PTM's 2m (Sec. IV-C)")
	return rep
}

// Sat3 solves random 3-SAT instances with the SOLC and cross-checks DPLL
// (the Sec. VIII observation that SOLCs encode SAT directly).
func Sat3(cfg core.Config, nv, nc, instances int) Report {
	rep := Report{
		ID:      "sat3",
		Title:   "Random 3-SAT via SOLC vs DPLL (Sec. VIII)",
		Headers: []string{"instance", "dpll", "solc", "t*", "attempts", "agree"},
	}
	rng := rand.New(rand.NewSource(7))
	for inst := 0; inst < instances; inst++ {
		formula := boolcirc.Random3SAT(rng, nv, nc)
		dp := sat.DPLL(formula, 0)
		opts := cfg.Options()
		opts.Seed = int64(inst + 1)
		res, err := solc.SolveCNF(formula, cfg.Params, opts)
		solcCell := "error"
		tCell, aCell := "-", "-"
		if err == nil {
			if res.Solved {
				solcCell = "SAT"
			} else {
				solcCell = "no-conv"
			}
			tCell = f("%.2f", res.Result.T)
			aCell = f("%d", res.Result.Attempts)
		}
		agree := "?"
		switch {
		case dp.Status == sat.Satisfiable && solcCell == "SAT":
			agree = "yes"
		case dp.Status == sat.Unsatisfiable && solcCell == "no-conv":
			agree = "yes (UNSAT)"
		case dp.Status == sat.Satisfiable && solcCell == "no-conv":
			agree = "solc missed"
		case dp.Status == sat.Unsatisfiable && solcCell == "SAT":
			agree = "IMPOSSIBLE"
		}
		rep.Rows = append(rep.Rows, []string{
			f("%d", inst+1), dp.Status.String(), solcCell, tCell, aCell, agree,
		})
	}
	return rep
}

// SolutionDiversity counts the distinct factorizations/selections found
// across seeds — the paper's machines reach different valid equilibria
// from different initial conditions (intrinsic parallelism over the
// attraction basins, Sec. IV-E).
func SolutionDiversity(cfg core.Config, seeds int) Report {
	rep := Report{
		ID:      "diversity",
		Title:   "Distinct equilibria reached across initial conditions",
		Headers: []string{"problem", "seeds", "solved", "distinct solutions"},
	}
	// AND gate with output 0 has 3 valid input pairs.
	distinct := map[[2]bool]bool{}
	solved := 0
	for s := 0; s < seeds; s++ {
		bc := boolcirc.New()
		a, b := bc.NewSignal(), bc.NewSignal()
		o := bc.And(a, b)
		cs := solc.Compile(bc, map[boolcirc.Signal]bool{o: false}, cfg.Params)
		opts := cfg.Options()
		opts.Seed = int64(s + 1)
		res, err := cs.Solve(opts)
		if err == nil && res.Solved {
			solved++
			distinct[[2]bool{res.Assignment[a], res.Assignment[b]}] = true
		}
	}
	rep.Rows = append(rep.Rows, []string{"AND out=0", f("%d", seeds), f("%d", solved), f("%d", len(distinct))})

	// 3-bit adder with sum 9 has several addend pairs.
	sums := map[[2]uint64]bool{}
	solved = 0
	for s := 0; s < seeds; s++ {
		bc := boolcirc.New()
		wa := bc.NewSignals(3)
		wb := bc.NewSignals(3)
		sum := bc.RippleAdder(wa, wb)
		pins := map[boolcirc.Signal]bool{}
		for i, sig := range sum {
			pins[sig] = 9&(1<<uint(i)) != 0
		}
		cs := solc.Compile(bc, pins, cfg.Params)
		opts := cfg.Options()
		opts.Seed = int64(s + 1)
		res, err := cs.Solve(opts)
		if err == nil && res.Solved {
			solved++
			sums[[2]uint64{
				boolcirc.WordToUint(res.Assignment, wa),
				boolcirc.WordToUint(res.Assignment, wb),
			}] = true
		}
	}
	rep.Rows = append(rep.Rows, []string{"adder3 sum=9", f("%d", seeds), f("%d", solved), f("%d", len(sums))})
	return rep
}

// AblationCapacitance compares convergence across node capacitances: the
// DESIGN.md substitution knob. Equilibria are identical; dynamics differ.
func AblationCapacitance(caps []float64, seeds int) Report {
	rep := Report{
		ID:      "ablation-c",
		Title:   "Node capacitance ablation (equilibria invariant, dynamics vary)",
		Headers: []string{"C", "solved", "median t*"},
	}
	for _, cap := range caps {
		p := circuit.Default()
		p.C = cap
		var times []float64
		solved := 0
		for s := 0; s < seeds; s++ {
			bc := boolcirc.New()
			a, b := bc.NewSignal(), bc.NewSignal()
			o := bc.Xor(a, b)
			cs := solc.Compile(bc, map[boolcirc.Signal]bool{o: true}, p)
			opts := solc.DefaultOptions()
			opts.Seed = int64(s + 1)
			opts.TEnd = 100
			res, err := cs.Solve(opts)
			if err == nil && res.Solved {
				solved++
				times = append(times, res.T)
			}
		}
		rep.Rows = append(rep.Rows, []string{f("%g", cap), f("%d/%d", solved, seeds), f("%.2f", median(times))})
	}
	return rep
}

// StepSizeSweep is the evidence for the IMEX step ceiling: for each node
// capacitance it solves a reduced factor suite — 15 on the 4-bit
// multiplier, `instances` restart seeds, the benchmark's horizon of 4
// and 32 restarts — at each fixed step size h (HMax = H, so the driver
// does not ramp), next to the predicted LC-tank bound 2√(C/m1) of the
// explicit VCDCG current and the ceiling the driver ramps to by default.
// verified counts instances solved within the restart budget, failed
// the rest, and rejected the steps retried after a failed or non-finite
// step.
func StepSizeSweep(caps, hs []float64, instances int) Report {
	rep := Report{
		ID:      "hsweep",
		Title:   "Fixed-step IMEX sweep on the 4-bit factor suite (step ceiling evidence)",
		Headers: []string{"C", "h", "2√(C/m1)", "ceiling", "verified", "failed", "rejected", "steps"},
	}
	bc, _, _, pins := core.BuildCircuit(15, core.BitLen(15))
	for _, cap := range caps {
		p := circuit.Default()
		p.C = cap
		cs := solc.Compile(bc, pins, p)
		bound := 2 * math.Sqrt(p.C/p.DCG.M1)
		ceiling := circuit.NewIMEX(cs.Eng.(*circuit.Circuit)).MaxStableStep()
		for _, h := range hs {
			tl := obs.NewTelemetry()
			verified, steps := 0, 0
			for i := 0; i < instances; i++ {
				opts := solc.DefaultOptions()
				opts.H, opts.HMax = h, h
				opts.TEnd = 4
				opts.MaxAttempts = 32
				opts.Seed = int64(i) * 64
				opts.Parallelism = 1
				opts.Telemetry = tl
				res, err := cs.Solve(opts)
				if err == nil && res.Solved {
					verified++
				}
				steps += res.Steps
			}
			rep.Rows = append(rep.Rows, []string{f("%g", cap), f("%g", h), f("%.4f", bound), f("%.4f", ceiling),
				f("%d/%d", verified, instances), f("%d", instances-verified),
				f("%d", tl.Rejected.Value()), f("%d", steps)})
		}
	}
	rep.Notes = append(rep.Notes,
		"the driver starts at Options.H and grows h ×1.1 per step up to the ceiling, 0.7 × min(2√(C/m1), 2/γ)")
	return rep
}
