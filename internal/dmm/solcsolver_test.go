package dmm

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/boolcirc"
	"repro/internal/obs"
	"repro/internal/solc"
)

// solcAdderMachine is adderMachine backed by the native SOLC solver
// instead of the DPLL baseline.
func solcAdderMachine(s SOLCSolver) *Machine {
	c := boolcirc.New()
	a, b, cin := c.NewSignal(), c.NewSignal(), c.NewSignal()
	c.MarkInput(a, b, cin)
	sum, cout := c.FullAdder(a, b, cin)
	c.MarkOutput(sum, cout)
	return New(c, []boolcirc.Signal{a, b, cin}, []boolcirc.Signal{sum, cout}, s)
}

// TestSOLCSolverZeroValue runs the machine's solution mode through the
// zero-value SOLC backend: default parameters, default options, capacitive
// IMEX configuration.
func TestSOLCSolverZeroValue(t *testing.T) {
	m := solcAdderMachine(SOLCSolver{})
	y, ok, err := m.Solve([]bool{false, true}) // s=0, cout=1 → two ones in
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("SOLC backend failed on a satisfiable b")
	}
	ones := 0
	for _, v := range y {
		if v {
			ones++
		}
	}
	if ones != 2 {
		t.Fatalf("s=0 cout=1 needs exactly two ones, got %v", y)
	}
}

// TestSOLCSolverKeepsCallerOptions sets only Seed and Telemetry: the
// defaults fill the other fields, and both set fields reach the solve,
// so every attempt event carries a seed derived from the caller's.
func TestSOLCSolverKeepsCallerOptions(t *testing.T) {
	const seed = 4242
	var buf bytes.Buffer
	tl := obs.NewTelemetry()
	tl.Tracer = obs.NewTracer(&buf)
	m := solcAdderMachine(SOLCSolver{Options: solc.Options{Seed: seed, Telemetry: tl}})
	if _, _, err := m.Solve([]bool{false, true}); err != nil {
		t.Fatal(err)
	}
	if err := tl.Tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	events := 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Ev == obs.EvMetrics {
			continue
		}
		events++
		if want := seed + int64(ev.Attempt); ev.Seed != want {
			t.Fatalf("%s event of attempt %d carries seed %d, want %d", ev.Ev, ev.Attempt, ev.Seed, want)
		}
	}
	if events == 0 {
		t.Fatal("no attempt events: the caller's Telemetry was dropped")
	}
}

// TestSOLCSolverParallelPortfolio exercises the raced-restart path through
// the Solver interface: four restarts on four workers.
func TestSOLCSolverParallelPortfolio(t *testing.T) {
	opts := solc.DefaultOptions()
	opts.TEnd = 150
	opts.MaxAttempts = 4
	opts.Parallelism = 4
	m := solcAdderMachine(SOLCSolver{Options: opts})
	y, ok, err := m.Solve([]bool{true, false}) // s=1, cout=0 → one one in
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("portfolio backend failed on a satisfiable b")
	}
	ones := 0
	for _, v := range y {
		if v {
			ones++
		}
	}
	if ones != 1 {
		t.Fatalf("s=1 cout=0 needs exactly one one, got %v", y)
	}
}

// TestSOLCSolverUnsat: pinning AND(a, const-0) to 1 must come back
// unsolved, not error.
func TestSOLCSolverUnsat(t *testing.T) {
	c := boolcirc.New()
	a := c.NewSignal()
	c.MarkInput(a)
	o := c.And(a, c.Const(false))
	c.MarkOutput(o)
	opts := solc.DefaultOptions()
	opts.TEnd = 5
	opts.MaxAttempts = 2
	m := New(c, []boolcirc.Signal{a}, []boolcirc.Signal{o}, SOLCSolver{Options: opts})
	_, ok, err := m.Solve([]bool{true})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("unsatisfiable pin reported as solved")
	}
}
