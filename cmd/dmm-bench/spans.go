package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"repro/internal/boolcirc"
	"repro/internal/circuit"
	"repro/internal/obs"
	"repro/internal/solc"
)

// mult6 compiles the 6-bit multiplier SOLC (12-bit product pinned to
// 2021 = 43 × 47) — the instance bench_test.go's BenchmarkIMEXStep
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

// spansPathStats is one instrumentation configuration's fixed-horizon
// measurement in BENCH_imex_spans.json.
type spansPathStats struct {
	SolveWallNs int64 `json:"solve_wall_ns"`
	Steps       int   `json:"steps"`
	NsPerStep   int64 `json:"ns_per_step"`
}

// spansBench is the BENCH_imex_spans.json document: the deep-observability
// overhead audit plus the per-phase time breakdown of the 6-bit
// multiplier.
type spansBench struct {
	Name     string  `json:"name"`
	Instance string  `json:"instance"`
	H        float64 `json:"h"`
	Gates    int     `json:"gates"`
	StateDim int     `json:"state_dim"`
	// Off integrates 20k steps with telemetry disabled entirely; On runs
	// the identical schedule with the full deep-observability stack live
	// (span profiler, step hooks, flight ring). Both are min-of-5
	// interleaved repetitions so clock drift cannot bias the overhead.
	Off spansPathStats `json:"spans_off"`
	On  spansPathStats `json:"spans_on"`
	// OverheadFrac is (on − off)/off in ns/step; the gate is < 3%.
	OverheadFrac float64 `json:"overhead_frac"`
	GateOverhead float64 `json:"gate_overhead"`
	// AllocsPerStep audits a warm instrumented step (spans + flight ring
	// + step hooks); the gate is exactly 0.
	AllocsPerStep float64 `json:"allocs_per_step"`
	// Scalar is the per-phase breakdown of the fastest spans-on run (the
	// observability payload CI archives).
	Scalar   *obs.SpansSnapshot `json:"scalar_breakdown"`
	Failures []string           `json:"failures,omitempty"`
}

// runScalarSpans integrates 20k fixed steps on a fresh 6-bit multiplier
// with the production stepper configuration, fully instrumented when sp
// is non-nil (span laps, step hooks, and a flight ring fed through them).
func runScalarSpans(steps int, h float64, sp *obs.Spans, fl *obs.Flight, tl *obs.Telemetry) spansPathStats {
	c := mult6()
	x := c.InitialState(rand.New(rand.NewSource(1)))
	s := circuit.NewIMEX(c)
	var so *obs.StepObs
	if sp != nil {
		s.Spans = sp
		so = tl.StepObsFor(fl)
	}
	t := 0.0
	start := time.Now()
	done := 0
	for ; done < steps; done++ {
		if err := s.Step(t, h, x); err != nil {
			break
		}
		tok := so.SpanBegin()
		so.Accept(h)
		so.SpanEnd(obs.PhaseBookkeep, tok)
		t += h
	}
	return spansPathStats{
		SolveWallNs: time.Since(start).Nanoseconds(),
		Steps:       done,
	}
}

// spansAllocsPerStep audits the steady-state allocation count of one
// warm, fully instrumented scalar step (the zero allocs/step gate).
func spansAllocsPerStep(h float64) float64 {
	c := mult6()
	x := c.InitialState(rand.New(rand.NewSource(1)))
	tl := obs.NewTelemetry()
	tl.Spans = obs.NewSpans()
	tl.Flight = obs.NewFlightSet(nil)
	fl := tl.FlightFor(0)
	s := circuit.NewIMEX(c)
	s.Spans = tl.Spans
	so := tl.StepObsFor(fl)
	if err := s.Step(0, h, x); err != nil {
		return -1
	}
	i := 0
	return testing.AllocsPerRun(200, func() {
		i++
		if err := s.Step(float64(i)*h, h, x); err != nil {
			panic(err)
		}
		tok := so.SpanBegin()
		so.Accept(h)
		so.SpanEnd(obs.PhaseBookkeep, tok)
	})
}

// imexSpans measures the deep-observability stack on the 6-bit
// multiplier: hot-loop overhead of the span profiler + flight recorder
// against the uninstrumented baseline (gated < 3%), zero steady-state
// allocations per instrumented step, and a per-phase breakdown in which
// every phase with a producer is charged. Prints the breakdown table,
// optionally writes BENCH_imex_spans.json, and returns an error when a
// gate fails.
func imexSpans(writeJSON bool) error {
	const h = 1e-3
	const steps = 20000
	c := mult6()
	doc := spansBench{
		Name:         "imex_spans",
		Instance:     "6-bit multiplier (12-bit product pinned to 2021 = 43*47)",
		H:            h,
		Gates:        c.NumGates(),
		StateDim:     c.Dim(),
		GateOverhead: 0.03,
	}

	// Interleave instrumented and uninstrumented repetitions and keep each
	// side's fastest wall time; the overhead gate compares best against
	// best, which is robust to one-sided clock drift.
	for rep := 0; rep < 5; rep++ {
		if s := runScalarSpans(steps, h, nil, nil, nil); rep == 0 || s.SolveWallNs < doc.Off.SolveWallNs {
			doc.Off = s
		}
		tl := obs.NewTelemetry()
		tl.Spans = obs.NewSpans()
		tl.Flight = obs.NewFlightSet(nil)
		fl := tl.FlightFor(0)
		if s := runScalarSpans(steps, h, tl.Spans, fl, tl); rep == 0 || s.SolveWallNs < doc.On.SolveWallNs {
			doc.On = s
			doc.Scalar = tl.Spans.Snapshot()
		}
	}
	doc.Off.NsPerStep = doc.Off.SolveWallNs / int64(doc.Off.Steps)
	doc.On.NsPerStep = doc.On.SolveWallNs / int64(doc.On.Steps)
	doc.OverheadFrac = float64(doc.On.NsPerStep-doc.Off.NsPerStep) / float64(doc.Off.NsPerStep)
	doc.AllocsPerStep = spansAllocsPerStep(h)

	if doc.On.Steps != doc.Off.Steps {
		doc.Failures = append(doc.Failures,
			fmt.Sprintf("step counts differ: on %d vs off %d (not comparing the same work)", doc.On.Steps, doc.Off.Steps))
	}
	if doc.OverheadFrac >= doc.GateOverhead {
		doc.Failures = append(doc.Failures,
			fmt.Sprintf("span+flight overhead %.2f%% ≥ %.0f%% gate (on %d ns/step vs off %d)",
				100*doc.OverheadFrac, 100*doc.GateOverhead, doc.On.NsPerStep, doc.Off.NsPerStep))
	}
	if doc.AllocsPerStep != 0 {
		doc.Failures = append(doc.Failures,
			fmt.Sprintf("instrumented step allocates %v allocs/step (want 0)", doc.AllocsPerStep))
	}
	// PhaseRefine has no producer; every other phase must carry
	// intervals.
	for _, ph := range doc.Scalar.Phases {
		if ph.Count == 0 && ph.Phase != obs.PhaseRefine.String() {
			doc.Failures = append(doc.Failures,
				fmt.Sprintf("breakdown: phase %q recorded no intervals", ph.Phase))
		}
	}

	fmt.Printf("IMEX deep observability: phase spans + flight recorder overhead\n")
	fmt.Printf("instance: %s\n", doc.Instance)
	fmt.Printf("h=%.6g steps=%d\n\n", doc.H, steps)
	fmt.Printf("%-10s %12s %14s %8s\n", "config", "ns/step", "solve wall", "steps")
	for _, row := range []struct {
		name string
		p    spansPathStats
	}{{"spans-off", doc.Off}, {"spans-on", doc.On}} {
		fmt.Printf("%-10s %12d %14s %8d\n", row.name, row.p.NsPerStep,
			time.Duration(row.p.SolveWallNs).Round(time.Millisecond), row.p.Steps)
	}
	fmt.Printf("\noverhead: %.2f%% (gate < %.0f%%), instrumented allocs/step: %v\n\n",
		100*doc.OverheadFrac, 100*doc.GateOverhead, doc.AllocsPerStep)
	doc.Scalar.WriteTable(os.Stdout)

	if writeJSON {
		out, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		name := "BENCH_imex_spans.json"
		if err := os.WriteFile(name, append(out, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", name)
	}
	for _, f := range doc.Failures {
		fmt.Fprintln(os.Stderr, "imex-spans GATE FAILED:", f)
	}
	if len(doc.Failures) > 0 {
		return fmt.Errorf("%d imex-spans gate(s) failed", len(doc.Failures))
	}
	return nil
}
