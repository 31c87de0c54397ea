package dmm

import (
	"testing"

	"repro/internal/boolcirc"
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
