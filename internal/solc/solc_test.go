package solc

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/boolcirc"
	"repro/internal/circuit"
	"repro/internal/la"
)

func xorProblem(outBit bool) (*boolcirc.Circuit, map[boolcirc.Signal]bool, []boolcirc.Signal) {
	bc := boolcirc.New()
	a, b := bc.NewSignal(), bc.NewSignal()
	o := bc.Xor(a, b)
	return bc, map[boolcirc.Signal]bool{o: outBit}, []boolcirc.Signal{a, b}
}

func TestSolveXORReverse(t *testing.T) {
	bc, pins, in := xorProblem(true)
	cs := Compile(bc, pins, circuit.Default())
	opts := DefaultOptions()
	opts.TEnd = 100
	res, err := cs.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("not solved: %s", res.Reason)
	}
	if res.Assignment[in[0]] == res.Assignment[in[1]] {
		t.Fatal("XOR=1 needs unequal inputs")
	}
	if res.Attempts < 1 || res.Steps == 0 || res.Wall <= 0 {
		t.Fatalf("bad result metadata: %+v", res)
	}
}

// TestSolveRejectsNonFiniteOptions: a NaN or infinite float setting is an
// error returned before any attempt runs — withDefaults only replaces
// values <= 0, so a NaN or +Inf TEnd would otherwise integrate forever.
func TestSolveRejectsNonFiniteOptions(t *testing.T) {
	bc, pins, _ := xorProblem(true)
	cs := Compile(bc, pins, circuit.Default())
	fields := []struct {
		name string
		set  func(*Options, float64)
	}{
		{"TEnd", func(o *Options, v float64) { o.TEnd = v }},
		{"H", func(o *Options, v float64) { o.H = v }},
		{"HMax", func(o *Options, v float64) { o.HMax = v }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			opts := DefaultOptions()
			opts.TEnd = 1
			f.set(&opts, v)
			done := make(chan error, 1)
			go func() {
				_, err := cs.Solve(opts)
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), "Options."+f.name+" =") {
					t.Errorf("%s = %v: err = %v, want an error naming %s", f.name, v, err, f.name)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s = %v: Solve still running after 10s", f.name, v)
			}
		}
	}
	opts := DefaultOptions()
	opts.TEnd = 1
	if _, err := cs.Solve(opts); err != nil {
		t.Fatalf("finite options rejected: %v", err)
	}
}

func TestSolveFullAdderReverse(t *testing.T) {
	bc := boolcirc.New()
	a, b, cin := bc.NewSignal(), bc.NewSignal(), bc.NewSignal()
	s, cout := bc.FullAdder(a, b, cin)
	pins := map[boolcirc.Signal]bool{s: false, cout: true}
	cs := Compile(bc, pins, circuit.Default())
	opts := DefaultOptions()
	opts.TEnd = 150
	res, err := cs.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("not solved: %s", res.Reason)
	}
	ones := 0
	for _, sig := range []boolcirc.Signal{a, b, cin} {
		if res.Assignment[sig] {
			ones++
		}
	}
	if ones != 2 {
		t.Fatalf("sum=0 carry=1 needs exactly two ones, got %d", ones)
	}
}

func TestSolveRespectsConstants(t *testing.T) {
	// AND of input with constant-0 pinned to 1 is unsatisfiable; the
	// solver must report failure rather than a bogus solution.
	bc := boolcirc.New()
	a := bc.NewSignal()
	k := bc.Const(false)
	o := bc.And(a, k)
	cs := Compile(bc, map[boolcirc.Signal]bool{o: true}, circuit.Default())
	opts := DefaultOptions()
	opts.TEnd = 5
	opts.MaxAttempts = 2
	res, err := cs.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Solved {
		t.Fatal("unsatisfiable problem reported as solved")
	}
	if res.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", res.Attempts)
	}
}

// solveMember compiles the XOR problem as a one-member portfolio and
// solves it, checking first that the member compiled to the capacitive
// circuit, which is the engine every member builds.
func solveMember(t *testing.T, m PortfolioMember) (Result, error) {
	t.Helper()
	bc, pins, _ := xorProblem(true)
	pf := CompilePortfolio(bc, pins, circuit.Default(), []PortfolioMember{m})
	if !isCircuit(pf.Compiled(0).Eng) {
		t.Fatalf("%+v compiled to %T, want *circuit.Circuit", m, pf.Compiled(0).Eng)
	}
	opts := DefaultOptions()
	opts.TEnd = 100
	return pf.Solve(opts)
}

func isCircuit(e circuit.Engine) bool {
	_, ok := e.(*circuit.Circuit)
	return ok
}

// TestCompileModes pins what is left of the member API kept for the
// frozen benchmark: Compile, the zero PortfolioMember and
// {ModeCapacitive, "imex"} all compile to the capacitive circuit, and
// both members win as "imex-capacitive".
func TestCompileModes(t *testing.T) {
	bc, pins, _ := xorProblem(true)
	if cs := Compile(bc, pins, circuit.Default()); !isCircuit(cs.Eng) {
		t.Fatalf("Compile built %T, want *circuit.Circuit", cs.Eng)
	}
	for _, m := range []PortfolioMember{{}, {Mode: ModeCapacitive, Stepper: "imex"}} {
		res, err := solveMember(t, m)
		if err != nil {
			t.Fatalf("%+v: %v", m, err)
		}
		if !res.Solved || res.WinnerMember != "imex-capacitive" {
			t.Fatalf("%+v: solved=%v winner %q, want a solve won by imex-capacitive", m, res.Solved, res.WinnerMember)
		}
	}
}

// TestIMEXRequiresCapacitive checks that a member naming any mode other
// than ModeCapacitive is an error returned by Solve, not a panic.
func TestIMEXRequiresCapacitive(t *testing.T) {
	m := PortfolioMember{Mode: ModeCapacitive + 1, Stepper: "imex"}
	if _, err := solveMember(t, m); err == nil {
		t.Fatalf("Solve accepted %+v", m)
	}
}

// TestUnknownStepper checks that any stepper other than "imex" (or the
// empty default), including the deleted "rk45", is an error returned by
// Solve, not a panic.
func TestUnknownStepper(t *testing.T) {
	for _, m := range []PortfolioMember{
		{Stepper: "rk45"},
		{Mode: ModeCapacitive, Stepper: "simplectic-leapfrog"},
	} {
		if _, err := solveMember(t, m); err == nil {
			t.Fatalf("Solve accepted %+v", m)
		}
	}
}

func TestObserveCallback(t *testing.T) {
	bc, pins, _ := xorProblem(true)
	cs := Compile(bc, pins, circuit.Default())
	opts := DefaultOptions()
	opts.TEnd = 100
	var calls int
	var lastLen int
	opts.Observe = func(tt float64, nodeV la.Vector) {
		calls++
		lastLen = len(nodeV)
	}
	res, err := cs.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("not solved: %s", res.Reason)
	}
	if calls == 0 {
		t.Fatal("Observe never called")
	}
	if lastLen != bc.NumSignals() {
		t.Fatalf("Observe node vector length %d, want %d", lastLen, bc.NumSignals())
	}
}

func TestSolveNOTChain(t *testing.T) {
	// A chain of two NOT gates pinned at the end: input must equal output.
	bc := boolcirc.New()
	a := bc.NewSignal()
	m := bc.Not(a)
	o := bc.Not(m)
	cs := Compile(bc, map[boolcirc.Signal]bool{o: true}, circuit.Default())
	opts := DefaultOptions()
	opts.TEnd = 100
	res, err := cs.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("not solved: %s", res.Reason)
	}
	if !res.Assignment[a] || res.Assignment[m] {
		t.Fatalf("NOT chain wrong: a=%v m=%v", res.Assignment[a], res.Assignment[m])
	}
}
