// Package experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md for the experiment index). Each driver
// returns a Report — a named table of rows — that cmd/dmm-bench prints,
// and most are also exercised by the repository's test and benchmark
// suites.
package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"repro/internal/boolcirc"
	"repro/internal/circuit"
	"repro/internal/classical"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/memristor"
	"repro/internal/sat"
	"repro/internal/solc"
	"repro/internal/solg"
)

// Report is one regenerated table or figure data set.
type Report struct {
	ID      string // e.g. "fig12"
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// Render formats the report as an aligned text table.
func (r Report) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Headers))
	for i, h := range r.Headers {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&sb, "%-*s  ", widths[i], c)
			} else {
				sb.WriteString(c)
			}
		}
		sb.WriteString("\n")
	}
	line(r.Headers)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

func f(format string, args ...any) string { return fmt.Sprintf(format, args...) }

// TableI reports the re-derived universal SO-gate parameters (the clamp
// levels and solved resistor VCVGs) together with the gate-contract
// verification for every gate kind.
func TableI() Report {
	rep := Report{
		ID:      "tableI",
		Title:   "Universal SO gate parameters (re-derived; see DESIGN.md)",
		Headers: []string{"gate", "terminal", "branch", "a1", "a2", "ao", "dc", "sigma", "type"},
	}
	kinds := []solg.Kind{solg.AND, solg.OR, solg.XOR, solg.NAND, solg.NOR, solg.XNOR, solg.NOT}
	for _, k := range kinds {
		g := solg.MustNew(k, 1)
		for t, dcm := range g.DCMs {
			for bi, br := range dcm.Branches {
				typ := "memristor"
				name := f("LM%d", bi+1)
				if !br.Mem {
					typ = "resistor"
					name = "LR"
				}
				rep.Rows = append(rep.Rows, []string{
					k.String(), f("%d", t+1), name,
					f("%g", br.L.A1), f("%g", br.L.A2), f("%g", br.L.Ao), f("%g", br.L.DC),
					f("%+g", br.Sigma), typ,
				})
			}
		}
		if v := g.VerifyContract(1, 1e-2, 1); len(v) != 0 {
			rep.Notes = append(rep.Notes, f("%v: CONTRACT VIOLATED: %v", k, v))
		}
	}
	rep.Notes = append(rep.Notes,
		"all gates verified: correct configurations draw zero terminal current; incorrect ones drive >=1 memristor to Ron")
	return rep
}

// TableII reports the two parameter presets side by side.
func TableII() Report {
	paper, def := circuit.Paper(), circuit.Default()
	rep := Report{
		ID:      "tableII",
		Title:   "Simulation parameters (paper Table II vs robust default)",
		Headers: []string{"parameter", "paper", "default"},
	}
	add := func(name string, a, b float64) {
		rep.Rows = append(rep.Rows, []string{name, f("%g", a), f("%g", b)})
	}
	add("Ron", paper.Mem.Ron, def.Mem.Ron)
	add("Roff", paper.Mem.Roff, def.Mem.Roff)
	add("vc", paper.Vc, def.Vc)
	add("alpha", paper.Mem.Alpha, def.Mem.Alpha)
	add("C", paper.C, def.C)
	// The memristor model has Table II's hard window and threshold built
	// in, so both presets share them.
	add("k", math.Inf(1), math.Inf(1))
	add("Vt", 0, 0)
	add("gamma", paper.DCG.Gamma, def.DCG.Gamma)
	add("q", paper.DCG.Q, def.DCG.Q)
	add("m0", paper.DCG.M0, def.DCG.M0)
	add("m1", paper.DCG.M1, def.DCG.M1)
	add("imin", paper.DCG.IMin, def.DCG.IMin)
	add("imax", paper.DCG.IMax, def.DCG.IMax)
	add("ki", paper.DCG.Ki, def.DCG.Ki)
	add("ks", paper.DCG.Ks, def.DCG.Ks)
	add("delta_s", paper.DCG.DeltaS, def.DCG.DeltaS)
	add("delta_i(min)", paper.DCG.DeltaIMin, def.DCG.DeltaIMin)
	add("delta_i(max)", paper.DCG.DeltaIMax, def.DCG.DeltaIMax)
	rep.Notes = append(rep.Notes, "default preset rationale: circuit.Default doc comment and DESIGN.md")
	return rep
}

// Fig4 reproduces the stable/unstable SO-AND configurations: net terminal
// currents for the satisfying and violating configurations.
func Fig4() Report {
	g := solg.MustNew(solg.AND, 1)
	rep := Report{
		ID:      "fig4",
		Title:   "SO-AND stable vs unstable configurations (net terminal currents)",
		Headers: []string{"v1", "v2", "vo", "correct", "i(T1)", "i(T2)", "i(out)", "strong branches"},
	}
	for m := 0; m < 8; m++ {
		bits := []bool{m&1 != 0, m&2 != 0, m&4 != 0}
		r := g.Analyze(bits, 1, 1e-2, 1)
		strong := 0
		for _, s := range r.StrongBranches {
			strong += s
		}
		rep.Rows = append(rep.Rows, []string{
			f("%+d", sign(bits[0])), f("%+d", sign(bits[1])), f("%+d", sign(bits[2])),
			f("%v", r.Correct),
			f("%.3g", r.NetCurrent[0]), f("%.3g", r.NetCurrent[1]), f("%.3g", r.NetCurrent[2]),
			f("%d", strong),
		})
	}
	return rep
}

func sign(b bool) int {
	if b {
		return 1
	}
	return -1
}

// Fig7 samples the VCDCG drive function f_DCG.
func Fig7(samples int) Report {
	d := device.DefaultVCDCG()
	rep := Report{
		ID:      "fig7",
		Title:   "VCDCG drive function f_DCG(v)",
		Headers: []string{"v", "f_DCG"},
	}
	if samples < 2 {
		samples = 41
	}
	for k := 0; k < samples; k++ {
		v := -1.5 + 3*float64(k)/float64(samples-1)
		rep.Rows = append(rep.Rows, []string{f("%.3f", v), f("%.4g", d.FDCG(v))})
	}
	rep.Notes = append(rep.Notes,
		f("slope at 0 = -m0 = %g; slope at ±vc = m1 = %g; saturation ±q = ±%g", -d.M0, d.M1, d.Q))
	return rep
}

// Fig9 samples the smooth steps θ̃_r, r = 1, 2, 3, and their derivatives.
func Fig9(samples int) Report {
	rep := Report{
		ID:      "fig9",
		Title:   "Smooth steps θ̃_r(y) and derivatives (r = 1, 2, 3)",
		Headers: []string{"y", "r1", "r2", "r3", "r1'", "r2'", "r3'"},
	}
	if samples < 2 {
		samples = 21
	}
	steps := []*memristor.SmoothStep{
		memristor.NewSmoothStep(1), memristor.NewSmoothStep(2), memristor.NewSmoothStep(3),
	}
	for k := 0; k < samples; k++ {
		y := float64(k) / float64(samples-1)
		row := []string{f("%.3f", y)}
		for _, s := range steps {
			row = append(row, f("%.5f", s.Eval(y)))
		}
		for _, s := range steps {
			row = append(row, f("%.4f", s.Deriv(y)))
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep
}

// Fig10 reports the s-equation equilibria in the three current regimes.
func Fig10() Report {
	d := device.DefaultVCDCG()
	rep := Report{
		ID:      "fig10",
		Title:   "Stability of the VCDCG bistable (Eq. 47) per current regime",
		Headers: []string{"regime", "offset", "equilibria (s, stable)"},
	}
	regimes := []struct {
		name   string
		offset float64
	}{
		{"all |i| < imin (drive)", +d.Ki},
		{"imin < |i| < imax (hold)", 0},
		{"some |i| > imax (retreat)", -d.Ki},
	}
	for _, r := range regimes {
		roots := d.SEquilibria(r.offset)
		var cells []string
		for _, root := range roots {
			cells = append(cells, f("(%.4f,%v)", root.S, root.Stable))
		}
		rep.Rows = append(rep.Rows, []string{r.name, f("%+.3g", r.offset), strings.Join(cells, " ")})
	}
	return rep
}

// Fig8Adder3 runs the paper's self-organizing three-bit adder in reverse:
// the sum word is pinned and the two addends self-organize.
func Fig8Adder3(cfg core.Config, target uint64, seeds int) Report {
	rep := Report{
		ID:      "fig8",
		Title:   "Self-organizing 3-bit adder in reverse (sum pinned)",
		Headers: []string{"seed", "solved", "a", "b", "a+b", "t*", "steps"},
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		bc := boolcirc.New()
		wa := bc.NewSignals(3)
		wb := bc.NewSignals(3)
		sum := bc.RippleAdder(wa, wb)
		pins := map[boolcirc.Signal]bool{}
		for i, s := range sum {
			pins[s] = target&(1<<uint(i)) != 0
		}
		cs := solc.Compile(bc, pins, cfg.Params)
		opts := cfg.Options()
		opts.Seed = seed
		res, err := cs.Solve(opts)
		row := []string{f("%d", seed), "false", "-", "-", "-", "-", "-"}
		if err == nil && res.Solved {
			a := boolcirc.WordToUint(res.Assignment, wa)
			b := boolcirc.WordToUint(res.Assignment, wb)
			row = []string{f("%d", seed), "true", f("%d", a), f("%d", b),
				f("%d", a+b), f("%.2f", res.T), f("%d", res.Steps)}
		} else if err == nil {
			row[4] = res.Reason
		}
		rep.Rows = append(rep.Rows, row)
	}
	rep.Notes = append(rep.Notes, f("target sum = %d", target))
	return rep
}

// Fig11Topology reports the factorization SOLC size versus input bits,
// checking the O(nn²) space scaling claim.
func Fig11Topology(maxBits int) Report {
	rep := Report{
		ID:      "fig11",
		Title:   "Factorization SOLC size vs product bits (space scaling, Sec. VII-A)",
		Headers: []string{"nn", "np", "nq", "gates", "signals", "gates/nn^2"},
	}
	for nn := 4; nn <= maxBits; nn += 2 {
		bc, p, q, _ := core.BuildCircuit(1<<uint(nn-1), nn)
		rep.Rows = append(rep.Rows, []string{
			f("%d", nn), f("%d", len(p)), f("%d", len(q)),
			f("%d", len(bc.Gates)), f("%d", bc.NumSignals()),
			f("%.3f", float64(len(bc.Gates))/float64(nn*nn)),
		})
	}
	rep.Notes = append(rep.Notes, "gates/nn² approaching a constant confirms O(nn²) gate growth")
	return rep
}

// Fig12Factorization runs factorization instances and reports convergence.
func Fig12Factorization(cfg core.Config, inputs []uint64) Report {
	rep := Report{
		ID:      "fig12",
		Title:   "Prime factorization via SOLC (solution mode)",
		Headers: []string{"n", "bits", "solved", "p", "q", "t*", "attempts", "gates", "dim", "wall"},
	}
	for _, n := range inputs {
		fz := core.NewFactorizer(cfg)
		res, err := fz.Factor(n)
		if err != nil {
			rep.Rows = append(rep.Rows, []string{f("%d", n), "-", "error:" + err.Error()})
			continue
		}
		rep.Rows = append(rep.Rows, []string{
			f("%d", n), f("%d", core.BitLen(n)), f("%v", res.Solved),
			f("%d", res.P), f("%d", res.Q),
			f("%.2f", res.Metrics.ConvergenceTime), f("%d", res.Metrics.Attempts),
			f("%d", res.Metrics.Gates), f("%d", res.Metrics.StateDim),
			res.Metrics.Wall.Round(time.Millisecond).String(),
		})
	}
	return rep
}

// Fig13Prime runs the factorization SOLC on a prime input: the machine
// must NOT converge (no equilibrium exists, Theorem VI.11).
func Fig13Prime(cfg core.Config, n uint64) Report {
	fz := core.NewFactorizer(cfg)
	res, err := fz.Factor(n)
	rep := Report{
		ID:      "fig13",
		Title:   "Prime input: trajectories never reach an equilibrium",
		Headers: []string{"n", "solved", "reason", "t(final)", "attempts"},
	}
	if err != nil {
		rep.Rows = append(rep.Rows, []string{f("%d", n), "error", err.Error(), "-", "-"})
		return rep
	}
	rep.Rows = append(rep.Rows, []string{
		f("%d", n), f("%v", res.Solved), res.Reason,
		f("%.2f", res.Metrics.ConvergenceTime), f("%d", res.Metrics.Attempts),
	})
	rep.Notes = append(rep.Notes,
		"a prime product admits no SOLC equilibrium; the run must exhaust its horizon (Fig. 13)")
	return rep
}

// Fig14Topology reports subset-sum SOLC size versus (n, p), checking the
// O(p(n + log2(n-1))) space scaling claim.
func Fig14Topology(maxN, maxP int) Report {
	rep := Report{
		ID:      "fig14",
		Title:   "Subset-sum SOLC size vs (n, p) (space scaling, Sec. VII-B)",
		Headers: []string{"n", "p", "gates", "signals", "gates/(p*n)"},
	}
	rng := rand.New(rand.NewSource(1))
	for n := 3; n <= maxN; n += 3 {
		for p := 3; p <= maxP; p += 3 {
			values := make([]uint64, n)
			for j := range values {
				values[j] = uint64(1 + rng.Intn(1<<uint(p)-1))
			}
			bc, _, _, _ := core.BuildSubsetSumCircuit(values, p, 1)
			rep.Rows = append(rep.Rows, []string{
				f("%d", n), f("%d", p), f("%d", len(bc.Gates)), f("%d", bc.NumSignals()),
				f("%.3f", float64(len(bc.Gates))/float64(p*n)),
			})
		}
	}
	rep.Notes = append(rep.Notes, "gates/(p·n) approaching a constant confirms O(p(n+log2(n-1))) gate growth")
	return rep
}

// Fig15SubsetSum runs subset-sum instances and reports convergence.
func Fig15SubsetSum(cfg core.Config, instances []SubsetSumInstance) Report {
	rep := Report{
		ID:      "fig15",
		Title:   "Subset-sum via SOLC (solution mode)",
		Headers: []string{"values", "target", "solved", "mask", "sum", "t*", "attempts", "gates", "wall"},
	}
	for _, inst := range instances {
		ss := core.NewSubsetSum(cfg)
		res, err := ss.Solve(inst.Values, inst.Target)
		if err != nil {
			rep.Rows = append(rep.Rows, []string{f("%v", inst.Values), f("%d", inst.Target), "error: " + err.Error()})
			continue
		}
		sum := classical.ApplyMask(inst.Values, res.Mask)
		rep.Rows = append(rep.Rows, []string{
			f("%v", inst.Values), f("%d", inst.Target), f("%v", res.Solved),
			f("%06b", res.Mask), f("%d", sum),
			f("%.2f", res.Metrics.ConvergenceTime), f("%d", res.Metrics.Attempts),
			f("%d", res.Metrics.Gates),
			res.Metrics.Wall.Round(time.Millisecond).String(),
		})
	}
	return rep
}

// SubsetSumInstance is one subset-sum problem.
type SubsetSumInstance struct {
	Values []uint64
	Target uint64
}

// Baselines compares the SOLC against the direct-protocol solvers (DPLL on
// the same boolean system, classical trial division) on small instances.
func Baselines(cfg core.Config, inputs []uint64) Report {
	rep := Report{
		ID:      "baselines",
		Title:   "Inverse protocol (SOLC) vs direct protocols (DPLL, trial division)",
		Headers: []string{"n", "solc", "solc wall", "dpll", "dpll wall", "cdcl wall", "trial wall"},
	}
	for _, n := range inputs {
		fz := core.NewFactorizer(cfg)
		res, err := fz.Factor(n)
		solcCell, solcWall := "error", "-"
		if err == nil {
			solcCell = f("%d×%d", res.P, res.Q)
			if !res.Solved {
				solcCell = "no-conv"
			}
			solcWall = res.Metrics.Wall.Round(time.Millisecond).String()
		}
		bc, p, q, pins := core.BuildCircuit(n, core.BitLen(n))
		start := time.Now()
		dp := sat.DPLL(bc.ToCNF(pins), 0)
		dpllWall := time.Since(start)
		dpllCell := "UNSAT"
		if dp.Status == sat.Satisfiable {
			a := boolcirc.Assignment(dp.Assignment)
			dpllCell = f("%d×%d", boolcirc.WordToUint(a, p), boolcirc.WordToUint(a, q))
		}
		start = time.Now()
		cd := sat.CDCL(bc.ToCNF(pins), 0)
		cdclWall := time.Since(start)
		if cd.Status != dp.Status {
			rep.Notes = append(rep.Notes, f("n=%d: CDCL and DPLL disagree!", n))
		}
		start = time.Now()
		d := classical.TrialDivision(n)
		trialWall := time.Since(start)
		_ = d
		rep.Rows = append(rep.Rows, []string{
			f("%d", n), solcCell, solcWall, dpllCell,
			dpllWall.Round(time.Microsecond).String(),
			cdclWall.Round(time.Microsecond).String(),
			trialWall.Round(time.Nanosecond).String(),
		})
	}
	rep.Notes = append(rep.Notes,
		"absolute times favour the classical baselines at these toy sizes; the paper's claim concerns asymptotic scaling of the physical machine, not its simulation")
	return rep
}
