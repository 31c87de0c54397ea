// Command e2ebench measures wall-clock time to a verified solution: it
// drives the solution-mode pipeline through its public layer calls —
// synthesis (core.BuildCircuit, boolcirc.FromCNF), compile
// (solc.CompilePortfolio), solve ((*solc.Portfolio).Solve) — and then
// re-checks every answer outside solc. The instance suites are generated
// from -seed alone and printed before the run.
//
// Workloads:
//
//	factor   160 restarts of the 4-bit factorization SOLC (n = 15): early-exit
//	         solves, time is steps-to-solution × step cost
//	sat      200 random 3-SAT formulas (5 vars, 13 clauses, at least 6 solutions),
//	         each synthesized and compiled fresh: OR-tree circuits, every clause pinned
//	horizon  one prime per width of 8–11 bits (Fig. 13) run to a fixed horizon:
//	         the largest circuits, a fixed step count, no claim is correct
//
// With -trace 0 it times passes over the suite with every instrument off
// and prints the end-to-end metrics, their times in reference seconds
// (calibrate.go); with -trace 1 it runs one untraced and one traced pass
// and prints the per-layer split, whose step-phase and solve times are
// wall time. The last line of standard output is the JSON result. Run it
// from the repository root:
//
//	bash e2ebench/run.sh --workload factor --seed 1 --seconds 25 --trace 0
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run.
var endToEnd = []metricDef{
	{"verified_per_s", "1/s"},
	{"steps_per_s", "1/s"},
	{"setup_s", "s"},
	{"ok_frac", "frac"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb", "MB"},
}

// perLayer are the metrics of a traced run.
var perLayer = []metricDef{
	{"boolcirc.synth_s", "s"},
	{"boolcirc.gates", "count"},
	{"solc.compile_s", "s"},
	{"la.factor_nnz", "count"},
	{"circuit.nnz", "count"},
	{"ode.steps", "count"},
	{"solc.attempts", "count"},
	{"solc.wasted_step_frac", "frac"},
	{"solc.solve_s", "s"},
	{"la.refactor_us", "us"},
	{"la.solve_us", "us"},
	{"la.refine_us", "us"},
	{"la.refactors_per_step", "1/step"},
	{"la.factor_hits", "count"},
	{"la.refine_sweeps", "count"},
	{"memristor.advance_us", "us"},
	{"circuit.cond_fill_us", "us"},
	{"circuit.stamp_us", "us"},
	{"ode.driver_us", "us"},
	{"boolcirc.verify_s", "s"},
	{"obs.trace_overhead_frac", "frac"},
	{"trace.layer_sum_frac", "frac"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			r.Metrics[name] = metric{Value: v, Unit: d.unit}
			return
		}
	}
	panic("e2ebench: undeclared metric " + name)
}

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// state is the directory for span files and per-seed count records
	// ("" disables both).
	state string
	// scale divides the suite sizes (1 for the benchmark).
	scale int
	// setupReps is the number of timed synthesis + compile repeats per
	// instance behind setup_s.
	setupReps int
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	cfg := config{state: ".bench_build", scale: 1, setupReps: 20}
	fl.StringVar(&cfg.workload, "workload", "", "workload: factor, sat or horizon")
	fl.Int64Var(&cfg.seed, "seed", 1, "workload seed: the suite and its restart seeds derive from it alone")
	fl.Float64Var(&cfg.seconds, "seconds", 25, "measuring time: untraced passes repeat while another fits")
	trace := fl.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "e2ebench: -trace must be 0 or 1")
		return 2
	}
	cfg.trace = *trace == 1
	res, err := bench(cfg, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// bench generates the suite, warms up, measures set-up, and runs the
// untraced or traced passes.
func bench(cfg config, stdout, stderr io.Writer) (*result, error) {
	w, err := newWorkload(cfg.workload, cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "workload %s seed %d: %d instances; sparse IMEX h=1e-3, horizon %g, %d attempts, parallel 1, lowest-attempt winner\n",
		w.name, cfg.seed, len(w.instances), w.tEnd, w.attempts)
	for i, in := range w.instances {
		fmt.Fprintf(stdout, "  %3d %v\n", i, in)
	}

	cal := newCalibrator()
	synth, comp, err := measureSetup(w, cfg.setupReps, cal)
	if err != nil {
		return nil, err
	}
	// Warm the solve path once before anything is timed.
	warm, err := synthesize(w.instances[0])
	if err != nil {
		return nil, err
	}
	if _, err := compile(warm).Solve(solveOptions(w, w.instances[0], nil)); err != nil {
		return nil, fmt.Errorf("warm-up solve: %w", err)
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	var passes []passResult
	if cfg.trace {
		passes, err = traced(cfg, w, synth, comp, cal, res, stderr)
	} else {
		passes, err = untraced(cfg, w, synth, comp, cal, res, stderr)
	}
	if err != nil {
		return nil, err
	}

	for i, p := range passes {
		res.Attempted += len(w.instances)
		res.Failed += p.unsolved + p.wrong
		if p.wrong > 0 {
			res.Correct = false
			fmt.Fprintf(stderr, "pass %d: %d claimed solutions failed independent verification\n", i, p.wrong)
		}
		if p.counts != passes[0].counts {
			res.Correct = false
			fmt.Fprintf(stderr, "determinism: pass %d counts %+v differ from pass 0 %+v\n", i, p.counts, passes[0].counts)
		}
	}
	fmt.Fprintf(stdout, "counts %s seed %d: %+v\n", w.name, cfg.seed, passes[0].counts)
	if err := checkRecord(cfg, passes[0].counts, stderr); err != nil {
		if !errors.Is(err, errMismatch) {
			return nil, err
		}
		res.Correct = false
	}
	return res, nil
}

// untraced repeats timed passes with every instrument off while another
// pass fits in cfg.seconds, and reports the median pass in reference
// seconds.
func untraced(cfg config, w *workload, synth, comp time.Duration, cal *calibrator, res *result, stderr io.Writer) ([]passResult, error) {
	var passes []passResult
	var allocMB []float64
	start := time.Now()
	for {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		p, err := runPass(w, nil, nil, cal)
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&m1)
		passes = append(passes, p)
		allocMB = append(allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
		fmt.Fprintf(stderr, "pass %d: wall %.3fs solve %.3fs correct %d/%d\n",
			len(passes)-1, p.busy.Seconds(), p.solve.Seconds(), p.correct, len(w.instances))
		if time.Since(start)+p.wall > time.Duration(cfg.seconds*float64(time.Second)) {
			break
		}
	}
	var verifiedRate, stepRate []float64
	for _, p := range passes {
		verifiedRate = append(verifiedRate, float64(p.correct)/cal.ref(p.busy))
		stepRate = append(stepRate, float64(p.counts.Steps)/cal.ref(p.solve))
	}
	fmt.Fprintf(stderr, "reference seconds per wall second: %.4f (%d kernel samples)\n", cal.ref(time.Second), len(cal.samples))
	res.set(endToEnd, "verified_per_s", median(verifiedRate))
	res.set(endToEnd, "steps_per_s", median(stepRate))
	res.set(endToEnd, "setup_s", cal.ref(synth+comp))
	res.set(endToEnd, "ok_frac", float64(passes[0].correct)/float64(len(w.instances)))
	res.set(endToEnd, "peak_rss_mb", peakRSSMB())
	res.set(endToEnd, "alloc_mb", median(allocMB))
	return passes, nil
}

// traced runs one untraced pass and then one pass with the benchmark's
// spans, the step-phase profiler, the telemetry counters and the attempt
// event tracer all on, and reports the per-layer split of the traced pass.
func traced(cfg config, w *workload, synth, comp time.Duration, cal *calibrator, res *result, stderr io.Writer) ([]passResult, error) {
	plain, err := runPass(w, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	tl := obs.NewTelemetry()
	tl.Spans = obs.NewSpans()
	var events bytes.Buffer
	tl.Tracer = obs.NewTracer(&events)
	rec := &recorder{epoch: time.Now()}
	p, err := runPass(w, tl, rec, nil)
	if err != nil {
		return nil, err
	}
	if err := tl.Tracer.Flush(); err != nil {
		return nil, fmt.Errorf("attempt events: %w", err)
	}
	wasted, total, err := wastedSteps(events.Bytes())
	if err != nil {
		return nil, err
	}
	if total != p.counts.Steps || tl.Steps.Value() != int64(p.counts.Steps) {
		return nil, fmt.Errorf("step counts disagree: events %d, telemetry %d, results %d", total, tl.Steps.Value(), p.counts.Steps)
	}

	steps := float64(p.counts.Steps)
	usPerStep := func(ns int64) float64 { return float64(ns) / 1e3 / steps }
	var stepperNs int64
	for ph, ns := range p.phaseNs {
		if obs.Phase(ph) != obs.PhaseBookkeep {
			stepperNs += ns
		}
	}
	self := rec.selfTimes()
	var layersNs int64
	for name, ns := range self {
		if name != "pass" {
			layersNs += ns
		}
	}

	set := func(name string, v float64) { res.set(perLayer, name, v) }
	set("boolcirc.synth_s", cal.ref(synth))
	set("boolcirc.gates", float64(p.counts.Gates))
	set("solc.compile_s", cal.ref(comp))
	set("la.factor_nnz", float64(p.counts.FactorNNZ))
	set("circuit.nnz", float64(p.counts.NNZ))
	set("ode.steps", steps)
	set("solc.attempts", float64(p.counts.Attempts))
	set("solc.wasted_step_frac", float64(wasted)/float64(total))
	set("solc.solve_s", p.solve.Seconds())
	set("la.refactor_us", usPerStep(p.phaseNs[obs.PhaseFactor]))
	set("la.solve_us", usPerStep(p.phaseNs[obs.PhaseSolve]))
	set("la.refine_us", usPerStep(p.phaseNs[obs.PhaseRefine]))
	set("la.refactors_per_step", float64(tl.Refactors.Value())/steps)
	set("la.factor_hits", float64(tl.FactorHits.Value()))
	set("la.refine_sweeps", float64(tl.Refines.Value()))
	set("memristor.advance_us", usPerStep(p.phaseNs[obs.PhaseMemAdvance]))
	set("circuit.cond_fill_us", usPerStep(p.phaseNs[obs.PhaseCondFill]))
	set("circuit.stamp_us", usPerStep(p.phaseNs[obs.PhaseStamp]))
	// The driver share is everything in Solve outside the six stepper
	// phases: the driver loop, clamp and convergence test (the
	// bookkeeping phase), attempt set-up, and decode.
	set("ode.driver_us", usPerStep(p.solve.Nanoseconds()-stepperNs))
	set("boolcirc.verify_s", p.check.Seconds())
	set("obs.trace_overhead_frac", (p.wall.Seconds()-plain.wall.Seconds())/plain.wall.Seconds())
	set("trace.layer_sum_frac", float64(layersNs)/float64(p.wall.Nanoseconds()))

	fmt.Fprintf(stderr, "untraced pass %.3fs, traced pass %.3fs\n", plain.wall.Seconds(), p.wall.Seconds())
	if err := writeSpans(cfg, rec); err != nil {
		return nil, err
	}
	return []passResult{plain, p}, nil
}

// measureSetup times synthesis and compile of every instance in reps
// rounds over the suite after one warm-up round, with a calibration
// sample before each round and a forced GC before each instance, and
// returns the per-pass sums of the per-instance medians in wall time.
//
// Interleaving the rounds spreads each instance's samples over the whole
// measurement, so a burst of machine noise lands on one sample of many
// instances rather than on every sample of one.
func measureSetup(w *workload, reps int, cal *calibrator) (synth, comp time.Duration, err error) {
	ss := make([][]float64, len(w.instances))
	cs := make([][]float64, len(w.instances))
	for r := -1; r < reps; r++ {
		cal.sample()
		for i, in := range w.instances {
			runtime.GC()
			t0 := time.Now()
			pr, err := synthesize(in)
			if err != nil {
				return 0, 0, err
			}
			t1 := time.Now()
			compile(pr)
			t2 := time.Now()
			if r >= 0 {
				ss[i] = append(ss[i], float64(t1.Sub(t0)))
				cs[i] = append(cs[i], float64(t2.Sub(t1)))
			}
		}
	}
	for i := range ss {
		synth += time.Duration(median(ss[i]))
		comp += time.Duration(median(cs[i]))
	}
	return synth, comp, nil
}

var errMismatch = errors.New("count mismatch")

// checkRecord compares the exact counts with those an earlier run of the
// same seed and the same benchmark binary left in the state directory,
// or leaves them there for the next run.
func checkRecord(cfg config, c counts, stderr io.Writer) error {
	if cfg.state == "" {
		return nil
	}
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("count record: %w", err)
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		return fmt.Errorf("count record: %w", err)
	}
	sum := sha256.Sum256(bin)
	path := filepath.Join(cfg.state, "counts", fmt.Sprintf("%s-seed%d-%s.json", cfg.workload, cfg.seed, hex.EncodeToString(sum[:8])))
	want, err := json.Marshal(c)
	if err != nil {
		return err
	}
	got, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return fmt.Errorf("count record: %w", err)
		}
		return os.WriteFile(path, want, 0o644)
	case err != nil:
		return fmt.Errorf("count record: %w", err)
	case !bytes.Equal(got, want):
		fmt.Fprintf(stderr, "determinism: counts %s differ from an earlier run of this seed %s\n", want, got)
		return errMismatch
	}
	return nil
}

// writeSpans writes the traced pass's spans as JSON lines.
func writeSpans(cfg config, rec *recorder) error {
	if cfg.state == "" {
		return nil
	}
	dir := filepath.Join(cfg.state, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range rec.spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
