package repro

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (DESIGN.md experiment index) plus the ablation benches.
// The dynamical benchmarks integrate full SOLC runs, so a single
// iteration takes seconds; testing.B handles that (they report
// wall-clock per solve). Run everything with
//
//	go test -bench=. -benchmem
//
// and regenerate the full tables with cmd/dmm-bench.

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/boolcirc"
	"repro/internal/circuit"
	"repro/internal/classical"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/la"
	"repro/internal/memristor"
	"repro/internal/obs"
	"repro/internal/ode"
	"repro/internal/sat"
	"repro/internal/solc"
	"repro/internal/solg"
)

// ---- Table I ----

func BenchmarkTableIGateCheck(b *testing.B) {
	kinds := []solg.Kind{solg.AND, solg.OR, solg.XOR, solg.NAND, solg.NOR, solg.XNOR, solg.NOT}
	for i := 0; i < b.N; i++ {
		for _, k := range kinds {
			g := solg.MustNew(k, 1)
			if v := g.VerifyContract(1, 1e-2, 1); len(v) != 0 {
				b.Fatal(v)
			}
		}
	}
}

// ---- Fig. 4 ----

func BenchmarkFig4StableUnstable(b *testing.B) {
	g := solg.MustNew(solg.AND, 1)
	for i := 0; i < b.N; i++ {
		_ = g.Analyze([]bool{true, true, true}, 1, 1e-2, 1)
		_ = g.Analyze([]bool{true, true, false}, 1, 1e-2, 1)
	}
}

// ---- Fig. 7 ----

func BenchmarkFig7FDCG(b *testing.B) {
	d := device.DefaultVCDCG()
	for i := 0; i < b.N; i++ {
		for v := -1.5; v <= 1.5; v += 0.01 {
			_ = d.FDCG(v)
		}
	}
}

// ---- Fig. 9 ----

func BenchmarkFig9Theta(b *testing.B) {
	steps := []*memristor.SmoothStep{
		memristor.NewSmoothStep(1), memristor.NewSmoothStep(2), memristor.NewSmoothStep(3),
	}
	for i := 0; i < b.N; i++ {
		for _, s := range steps {
			for y := 0.0; y <= 1.0; y += 0.01 {
				_ = s.Eval(y)
				_ = s.Deriv(y)
			}
		}
	}
}

// ---- Fig. 10 ----

func BenchmarkFig10SEquilibria(b *testing.B) {
	d := device.DefaultVCDCG()
	for i := 0; i < b.N; i++ {
		_ = d.SEquilibria(+d.Ki)
		_ = d.SEquilibria(0)
		_ = d.SEquilibria(-d.Ki)
	}
}

// ---- Fig. 8: self-organizing 3-bit adder in reverse ----

func BenchmarkFig8Adder3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bc := boolcirc.New()
		wa := bc.NewSignals(3)
		wb := bc.NewSignals(3)
		sum := bc.RippleAdder(wa, wb)
		pins := map[boolcirc.Signal]bool{}
		for k, s := range sum {
			pins[s] = 9&(1<<uint(k)) != 0
		}
		cs := solc.Compile(bc, pins, circuit.Default())
		opts := solc.DefaultOptions()
		opts.Seed = int64(i + 1)
		res, err := cs.Solve(opts)
		if err != nil || !res.Solved {
			b.Fatalf("adder bench failed: %v %v", err, res.Reason)
		}
	}
}

// ---- Fig. 11: factorization topology (space scaling) ----

func BenchmarkFig11TopologyBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bc, _, _, pins := core.BuildCircuit(1<<17+1, 18)
		_ = solc.Compile(bc, pins, circuit.Default())
	}
}

// ---- Fig. 12: factorization convergence ----

func BenchmarkFig12Factorization6bit(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.TEnd = 150
	cfg.MaxAttempts = 4
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		fz := core.NewFactorizer(cfg)
		res, err := fz.Factor(35)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Solved {
			b.Logf("seed %d: no convergence (%s)", cfg.Seed, res.Reason)
		}
	}
}

// ---- Fig. 13: prime input (non-convergence at a fixed horizon) ----

func BenchmarkFig13PrimeHorizon(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.TEnd = 10
	cfg.MaxAttempts = 1
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		fz := core.NewFactorizer(cfg)
		res, err := fz.Factor(47)
		if err != nil {
			b.Fatal(err)
		}
		if res.Solved {
			b.Fatal("prime factored?!")
		}
	}
}

// ---- Fig. 14: subset-sum topology ----

func BenchmarkFig14TopologyBuild(b *testing.B) {
	values := []uint64{13, 21, 34, 55, 89, 144, 233, 377}
	for i := 0; i < b.N; i++ {
		bc, _, pins, _ := core.BuildSubsetSumCircuit(values, 9, 100)
		_ = solc.Compile(bc, pins, circuit.Default())
	}
}

// ---- Fig. 15: subset-sum convergence ----

func BenchmarkFig15SubsetSum(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.TEnd = 150
	cfg.MaxAttempts = 4
	values := []uint64{3, 5, 6}
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		ss := core.NewSubsetSum(cfg)
		res, err := ss.Solve(values, 8)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Solved {
			b.Logf("seed %d: no convergence (%s)", cfg.Seed, res.Reason)
		}
	}
}

// ---- Sec. VII scaling series ----

func BenchmarkScalingFactorization(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.TEnd = 120
	cfg.MaxAttempts = 2
	b.Run("bits=4", func(b *testing.B) { benchFactor(b, cfg, 4) })
	b.Run("bits=6", func(b *testing.B) { benchFactor(b, cfg, 6) })
}

func benchFactor(b *testing.B, cfg core.Config, bits int) {
	n := map[int]uint64{4: 15, 6: 35, 8: 143}[bits]
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		fz := core.NewFactorizer(cfg)
		if _, err := fz.Factor(n); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScalingSubsetSum(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.TEnd = 120
	cfg.MaxAttempts = 2
	cases := []struct {
		name   string
		values []uint64
		target uint64
	}{
		{"n=3,p=3", []uint64{3, 5, 6}, 8},
		{"n=4,p=4", []uint64{3, 5, 9, 13}, 18},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg.Seed = int64(i + 1)
				ss := core.NewSubsetSum(cfg)
				if _, err := ss.Solve(c.values, c.target); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Compile path (compile; symbolic analysis) ----

// BenchmarkCompile measures one SOLC compile — solc.Compile: circuit
// construction, the stamp plan and the sparse symbolic analysis — on the
// circuits the end-to-end workloads compile: the 4-bit multiplier of
// n = 15 (factor), a 5-variable 13-clause random 3-SAT OR-tree (sat) and
// the 11-bit multiplier (horizon's largest). Synthesis of the boolean
// circuit is outside the timer. Besides ns/op and allocs/op it reports
// the layer split: symbolic-ns/op is la.NewSparseLU on the compiled
// pattern, timed on a second, untimed pass so it does not count twice,
// and build-ns/op is the rest of the compile.
func BenchmarkCompile(b *testing.B) {
	for _, tc := range compileCases(b) {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var symbolic time.Duration
			for i := 0; i < b.N; i++ {
				c := solc.Compile(tc.bc, tc.pins, circuit.Default()).Eng.(*circuit.Circuit)
				b.StopTimer()
				pat := c.Pattern()
				t0 := time.Now()
				if _, err := la.NewSparseLU(pat); err != nil {
					b.Fatal(err)
				}
				symbolic += time.Since(t0)
				b.StartTimer()
			}
			perOp := float64(b.N)
			b.ReportMetric(float64(symbolic.Nanoseconds())/perOp, "symbolic-ns/op")
			b.ReportMetric(float64((b.Elapsed()-symbolic).Nanoseconds())/perOp, "build-ns/op")
		})
	}
}

// compileCase is one boolean circuit with its pins, ready to compile.
type compileCase struct {
	name string
	bc   *boolcirc.Circuit
	pins map[boolcirc.Signal]bool
}

// compileCases returns the circuits the end-to-end workloads compile:
// the n = 15 multiplier (factor), a 5-variable 13-clause random 3-SAT
// OR-tree (sat) and the 11-bit multiplier (horizon's largest).
func compileCases(tb testing.TB) []compileCase {
	satBC, _, outs, err := boolcirc.FromCNF(randomCNF(rand.New(rand.NewSource(1)), 5, 13))
	if err != nil {
		tb.Fatal(err)
	}
	satPins := make(map[boolcirc.Signal]bool, len(outs))
	for _, o := range outs {
		satPins[o] = true
	}
	factorBC, _, _, factorPins := core.BuildCircuit(15, core.BitLen(15))
	wideBC, _, _, widePins := core.BuildCircuit(2039, 11)
	return []compileCase{
		{"factor", factorBC, factorPins},
		{"sat", satBC, satPins},
		{"11bit", wideBC, widePins},
	}
}

// randomCNF draws nc clauses over nv variables, each three distinct
// variables with random signs (the sat workload's formula shape).
func randomCNF(rng *rand.Rand, nv, nc int) boolcirc.CNF {
	f := boolcirc.CNF{NumVars: nv}
	for k := 0; k < nc; k++ {
		var cl boolcirc.Clause
		for _, v := range rng.Perm(nv)[:3] {
			l := boolcirc.Lit(v + 1)
			if rng.Intn(2) == 0 {
				l = -l
			}
			cl = append(cl, l)
		}
		f.Clauses = append(f.Clauses, cl)
	}
	return f
}

// ---- Sparse vs dense IMEX voltage solve ----

// multiplier6 builds the 6-bit multiplier SOLC: 6-bit factor words with
// the 12-bit product pinned to 2021 = 43 × 47 (171 gates, 171 free
// nodes — the largest factorization instance the repo benchmarks).
func multiplier6() *solc.Compiled {
	bc := boolcirc.New()
	p := bc.NewSignals(6)
	q := bc.NewSignals(6)
	prod := bc.Multiplier(p, q)
	pins := map[boolcirc.Signal]bool{}
	for i, s := range prod {
		pins[s] = 2021&(1<<uint(i)) != 0
	}
	return solc.Compile(bc, pins, circuit.Default())
}

// benchIMEXStep measures one IMEX step — the steady-state cost the solve
// loop pays on the symbolic-once la.SparseLU path — in sub-benchmarks:
// "6bit" on the 6-bit multiplier SOLC from its t = 0 state at h = 1e-3,
// and "<case>-mid" on each circuit of compileCases mid-trajectory, from
// the state 300 driver steps leave and at the ramp's ceiling h (see
// midTrajectory). A non-nil telemetry attaches the per-step instrument
// set (the accept hook, called as the driver would), pinning its
// hot-path cost.
func benchIMEXStep(b *testing.B, tl *obs.Telemetry) {
	run := func(b *testing.B, c *circuit.Circuit, st *circuit.IMEXStepper, x la.Vector, t, h float64) {
		so := tl.StepObsFor(nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := st.Step(t, h, x); err != nil {
				b.Fatal(err)
			}
			so.Accept(h)
			t += h
		}
	}
	b.Run("6bit", func(b *testing.B) {
		c := multiplier6().Eng.(*circuit.Circuit)
		x := c.InitialState(rand.New(rand.NewSource(1)))
		st := circuit.NewIMEX(c)
		h := 1e-3
		if err := st.Step(0, h, x); err != nil {
			b.Fatal(err)
		}
		run(b, c, st, x, h, h)
	})
	for _, tc := range compileCases(b) {
		b.Run(tc.name+"-mid", func(b *testing.B) {
			c := solc.Compile(tc.bc, tc.pins, circuit.Default()).Eng.(*circuit.Circuit)
			st, x, t, h := midTrajectory(b, c)
			run(b, c, st, x, t, h)
		})
	}
}

// midTrajectory runs c through 300 steps of the ode.Driver from seed 1's
// initial state, as a solve attempt does: h ramps ×1.1 per step from
// solc.DefaultOptions' H to the stepper's stability ceiling, and the
// state is clamped after every step. It returns the stepper, the state,
// the time reached and the ceiling h.
func midTrajectory(tb testing.TB, c *circuit.Circuit) (*circuit.IMEXStepper, la.Vector, float64, float64) {
	const steps = 300
	opts := solc.DefaultOptions()
	x := c.InitialState(rand.New(rand.NewSource(1)))
	st := circuit.NewIMEX(c)
	n := 0
	d := ode.Driver{
		Stepper: st, H: opts.H, HMax: opts.HMax,
		Stop: func(float64, la.Vector) bool { n++; return n == steps },
	}
	res := d.Run(0, x)
	if res.Err != nil || res.Steps != steps {
		tb.Fatalf("%d driver steps, want %d (%v)", res.Steps, steps, res.Err)
	}
	return st, x, res.T, min(opts.HMax, st.MaxStableStep())
}

func BenchmarkIMEXStepSparse(b *testing.B) { benchIMEXStep(b, nil) }

// BenchmarkIMEXStepTelemetry is BenchmarkIMEXStepSparse with the
// telemetry instruments attached — the CI gate asserting observability
// stays free on the hot path (0 allocs/op, within noise of the
// uninstrumented step).
func BenchmarkIMEXStepTelemetry(b *testing.B) { benchIMEXStep(b, obs.NewTelemetry()) }

// TestIMEXStepTelemetryZeroAlloc is the deterministic allocation check
// behind the benchmark: after the first step warms the factorization,
// an instrumented step must not allocate.
func TestIMEXStepTelemetryZeroAlloc(t *testing.T) {
	cs := multiplier6()
	c := cs.Eng.(*circuit.Circuit)
	x := c.InitialState(rand.New(rand.NewSource(1)))
	tl := obs.NewTelemetry()
	st := circuit.NewIMEX(c)
	so := tl.StepObsFor(nil)
	h := 1e-3
	if err := st.Step(0, h, x); err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		i++
		if err := st.Step(float64(i)*h, h, x); err != nil {
			t.Fatal(err)
		}
		so.Accept(h)
	})
	if allocs != 0 {
		t.Fatalf("instrumented IMEX step allocates %.1f/op, want 0", allocs)
	}
	if tl.Steps.Value() == 0 || st.Computed() == 0 {
		t.Fatalf("counts not recording: steps=%d computed=%d",
			tl.Steps.Value(), st.Computed())
	}
}

// TestIMEXStepSpansFlightZeroAlloc repeats the allocation check with the
// full deep-observability stack live — span profiler laps, a flight ring
// fed by the step hooks, and the bookkeeping span the driver charges —
// pinning the zero-alloc contract of ISSUE 9's instruments.
func TestIMEXStepSpansFlightZeroAlloc(t *testing.T) {
	cs := multiplier6()
	c := cs.Eng.(*circuit.Circuit)
	x := c.InitialState(rand.New(rand.NewSource(1)))
	tl := obs.NewTelemetry()
	tl.Spans = obs.NewSpans()
	tl.Flight = obs.NewFlightSet(nil)
	fl := tl.FlightFor(0)
	st := circuit.NewIMEX(c)
	st.Spans = tl.Spans
	so := tl.StepObsFor(fl)
	h := 1e-3
	if err := st.Step(0, h, x); err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		i++
		if err := st.Step(float64(i)*h, h, x); err != nil {
			t.Fatal(err)
		}
		tok := so.SpanBegin()
		so.Accept(h)
		so.SpanEnd(obs.PhaseBookkeep, tok)
	})
	if allocs != 0 {
		t.Fatalf("spans+flight IMEX step allocates %.1f/op, want 0", allocs)
	}
	snap := tl.Spans.Snapshot()
	if snap == nil || snap.TotalNs <= 0 {
		t.Fatal("span profiler recorded nothing")
	}
	for _, want := range []string{"conductance-fill", "stamp", "solve", "memristor-advance", "bookkeeping"} {
		found := false
		for _, ph := range snap.Phases {
			if ph.Phase == want && ph.Count > 0 {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("phase %q recorded no intervals", want)
		}
	}
	if fl.Len() == 0 {
		t.Fatal("flight ring recorded nothing")
	}
	recs := fl.Records()
	if recs[len(recs)-1].Step != int64(i) {
		t.Fatalf("flight last step = %d, want %d", recs[len(recs)-1].Step, i)
	}
}

// ---- Parallel restart portfolio (internal/solc pool) ----

// BenchmarkParallelRestarts races the same four-restart factorization of
// n=35 sequentially and on the concurrent pool. Seed 1 makes attempt 0
// converge slowly (t* ≈ 26) while attempt 2 converges fast (t* ≈ 5), so
// the first-done racing policy wins wall-clock even on a single core:
// the fast attempt cancels the slow ones instead of waiting behind them.
func BenchmarkParallelRestarts(b *testing.B) {
	run := func(b *testing.B, parallelism int, firstWin bool) {
		cfg := core.DefaultConfig()
		cfg.Seed = 1
		cfg.TEnd = 150
		cfg.MaxAttempts = 4
		cfg.Parallelism = parallelism
		cfg.FirstWin = firstWin
		for i := 0; i < b.N; i++ {
			fz := core.NewFactorizer(cfg)
			res, err := fz.Factor(35)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Solved {
				b.Fatalf("no convergence (%s)", res.Reason)
			}
		}
	}
	b.Run("sequential", func(b *testing.B) { run(b, 1, false) })
	b.Run("parallel-4-deterministic", func(b *testing.B) { run(b, 4, false) })
	b.Run("parallel-4-first-win", func(b *testing.B) { run(b, 4, true) })
}

// ---- Direct-protocol baselines ----

func BenchmarkBaselineDPLLFactor35(b *testing.B) {
	bc, _, _, pins := core.BuildCircuit(35, 6)
	cnf := bc.ToCNF(pins)
	for i := 0; i < b.N; i++ {
		if res := sat.DPLL(cnf, 0); res.Status != sat.Satisfiable {
			b.Fatal("UNSAT?!")
		}
	}
}

func BenchmarkBaselineCDCLFactor35(b *testing.B) {
	bc, _, _, pins := core.BuildCircuit(35, 6)
	cnf := bc.ToCNF(pins)
	for i := 0; i < b.N; i++ {
		if res := sat.CDCL(cnf, 0); res.Status != sat.Satisfiable {
			b.Fatal("UNSAT?!")
		}
	}
}

func BenchmarkBaselineCDCLPrimeUNSAT(b *testing.B) {
	bc, _, _, pins := core.BuildCircuit(47, 6)
	cnf := bc.ToCNF(pins)
	for i := 0; i < b.N; i++ {
		if res := sat.CDCL(cnf, 0); res.Status != sat.Unsatisfiable {
			b.Fatal("should be UNSAT")
		}
	}
}

func BenchmarkBaselineTrialDivision(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if classical.TrialDivision(35) != 5 {
			b.Fatal("wrong factor")
		}
	}
}

func BenchmarkBaselineSubsetSumDP(b *testing.B) {
	values := []uint64{3, 5, 6, 9, 13, 21}
	for i := 0; i < b.N; i++ {
		if _, ok := classical.SubsetSumDP(values, 28); !ok {
			b.Fatal("should be satisfiable")
		}
	}
}

func BenchmarkBaselineSubsetSumMITM(b *testing.B) {
	values := []uint64{3, 5, 6, 9, 13, 21, 34, 55}
	for i := 0; i < b.N; i++ {
		if _, ok := classical.SubsetSumMITM(values, 46); !ok {
			b.Fatal("should be satisfiable")
		}
	}
}

// ---- Ablation benches (DESIGN.md design choices) ----

// BenchmarkAblationCapacitance sweeps the node capacitance (the DESIGN.md
// substitution knob): equilibria are identical; convergence time varies.
func BenchmarkAblationCapacitance(b *testing.B) {
	for _, cap := range []float64{2e-3, 2e-2, 2e-1} {
		b.Run(fmtF(cap), func(b *testing.B) {
			p := circuit.Default()
			p.C = cap
			bc := boolcirc.New()
			x, y := bc.NewSignal(), bc.NewSignal()
			o := bc.And(x, y)
			cs := solc.Compile(bc, map[boolcirc.Signal]bool{o: true}, p)
			for i := 0; i < b.N; i++ {
				opts := solc.DefaultOptions()
				opts.Seed = int64(i + 1)
				opts.TEnd = 100
				if _, err := cs.Solve(opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEnsembleReport regenerates the Sec. VI-H ensemble statistic.
func BenchmarkEnsembleReport(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.TEnd = 80
	for i := 0; i < b.N; i++ {
		_ = experiments.Ensemble(cfg, 35, 2)
	}
}

// ---- helpers ----

func fmtF(v float64) string {
	switch {
	case v >= 0.1:
		return "C=2e-1"
	case v >= 0.01:
		return "C=2e-2"
	default:
		return "C=2e-3"
	}
}

// TestAblationNoVCDCGSpuriousZero verifies the Sec. V-D claim motivating
// the VCDCG: without it, the SO-AND with output pinned to 0 admits the
// spurious stable solution (v1, v2) = (0, 0) — started there, the circuit
// stays there. With VCDCGs the same start escapes to ±vc.
func TestAblationNoVCDCGSpuriousZero(t *testing.T) {
	run := func(omit bool) (v1, v2 float64) {
		p := circuit.Default()
		p.OmitVCDCG = omit
		p.TRise = 0.01 // pin the output almost immediately
		b := circuit.NewBuilder(p)
		n1, n2, no := b.Node(), b.Node(), b.Node()
		b.AddGate(solg.AND, n1, n2, no)
		b.PinBit(no, false)
		c := b.Build()
		// Start exactly at the spurious configuration: voltages 0,
		// memristors at the weak boundary.
		x := c.InitialState(rand.New(rand.NewSource(1)))
		nv, nm, _ := c.Counts()
		for f := 0; f < nv; f++ {
			x[f] = 0
		}
		for m := 0; m < nm; m++ {
			x[nv+m] = 1
		}
		st := circuit.NewIMEX(c)
		for k := 0; k < 30000; k++ {
			if err := st.Step(float64(k)*1e-3, 1e-3, x); err != nil {
				t.Fatal(err)
			}
		}
		volts := c.NodeVoltages(30, x, nil)
		return volts[n1], volts[n2]
	}
	v1, v2 := run(true)
	if absF(v1) > 0.5 || absF(v2) > 0.5 {
		t.Fatalf("without VCDCGs the (0,0) state should persist, got (%v, %v)", v1, v2)
	}
	v1, v2 = run(false)
	if absF(absF(v1)-1) > 0.1 || absF(absF(v2)-1) > 0.1 {
		t.Fatalf("with VCDCGs the (0,0) state should be destabilized to ±vc, got (%v, %v)", v1, v2)
	}
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestVCDCGRemovesSpuriousZero is the paired positive control.
func TestVCDCGRemovesSpuriousZero(t *testing.T) {
	bc := boolcirc.New()
	x, y := bc.NewSignal(), bc.NewSignal()
	o := bc.And(x, y)
	cs := solc.Compile(bc, map[boolcirc.Signal]bool{o: false}, circuit.Default())
	opts := solc.DefaultOptions()
	opts.TEnd = 100
	res, err := cs.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("with VCDCGs the gate should organize: %s", res.Reason)
	}
	if res.Assignment[x] && res.Assignment[y] {
		t.Fatal("AND out=0 with both inputs 1")
	}
}

// TestRandomInitialStatesAlwaysDecodeSafely fuzzes the end-to-end pipeline
// at a tiny horizon: whatever happens, Solve must return without error and
// never report Solved with an unverified assignment.
func TestRandomInitialStatesAlwaysDecodeSafely(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 5; trial++ {
		bc := boolcirc.New()
		x, y := bc.NewSignal(), bc.NewSignal()
		o := bc.Xor(x, y)
		cs := solc.Compile(bc, map[boolcirc.Signal]bool{o: rng.Intn(2) == 1}, circuit.Default())
		opts := solc.DefaultOptions()
		opts.Seed = rng.Int63()
		opts.TEnd = 3
		opts.MaxAttempts = 1
		res, err := cs.Solve(opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Solved && !cs.BC.Satisfied(res.Assignment) {
			t.Fatal("Solved with unverified assignment")
		}
	}
}
