package sat

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/boolcirc"
)

func cl(ls ...boolcirc.Lit) boolcirc.Clause { return boolcirc.Clause(ls) }

func TestDPLLTrivial(t *testing.T) {
	f := boolcirc.CNF{NumVars: 1, Clauses: []boolcirc.Clause{cl(1)}}
	res := DPLL(f, 0)
	if res.Status != Satisfiable || !res.Assignment[0] {
		t.Fatalf("got %+v", res)
	}
	f = boolcirc.CNF{NumVars: 1, Clauses: []boolcirc.Clause{cl(1), cl(-1)}}
	if DPLL(f, 0).Status != Unsatisfiable {
		t.Fatal("x ∧ ¬x should be UNSAT")
	}
}

func TestDPLLChain(t *testing.T) {
	// Implication chain x1 → x2 → ... → x5, with x1 forced.
	f := boolcirc.CNF{NumVars: 5}
	f.Clauses = append(f.Clauses, cl(1))
	for v := 1; v < 5; v++ {
		f.Clauses = append(f.Clauses, cl(boolcirc.Lit(-v), boolcirc.Lit(v+1)))
	}
	res := DPLL(f, 0)
	if res.Status != Satisfiable {
		t.Fatal("chain should be SAT")
	}
	for v := 0; v < 5; v++ {
		if !res.Assignment[v] {
			t.Fatalf("x%d should be true", v+1)
		}
	}
	if res.Propagations == 0 {
		t.Fatal("unit propagation should fire on the chain")
	}
}

func TestDPLLPigeonhole(t *testing.T) {
	// 3 pigeons, 2 holes: variables p_{i,h} = i*2+h+1. UNSAT.
	f := boolcirc.CNF{NumVars: 6}
	for i := 0; i < 3; i++ {
		f.Clauses = append(f.Clauses, cl(boolcirc.Lit(i*2+1), boolcirc.Lit(i*2+2)))
	}
	for h := 0; h < 2; h++ {
		for i := 0; i < 3; i++ {
			for j := i + 1; j < 3; j++ {
				f.Clauses = append(f.Clauses,
					cl(boolcirc.Lit(-(i*2+h+1)), boolcirc.Lit(-(j*2+h+1))))
			}
		}
	}
	if DPLL(f, 0).Status != Unsatisfiable {
		t.Fatal("pigeonhole(3,2) should be UNSAT")
	}
}

func TestDPLLDecisionBudget(t *testing.T) {
	// A formula needing decisions: 2-SAT chain with free choices.
	f := boolcirc.CNF{NumVars: 20}
	for v := 1; v < 20; v += 2 {
		f.Clauses = append(f.Clauses, cl(boolcirc.Lit(v), boolcirc.Lit(v+1)))
	}
	res := DPLL(f, 0)
	if res.Status != Satisfiable {
		t.Fatal("should be SAT")
	}
}

func TestDPLLOnCircuitCNF(t *testing.T) {
	// Full adder pinned to s=0, cout=1 must be SAT with exactly two input
	// ones; pinned to impossible outputs of a constant circuit, UNSAT.
	bc := boolcirc.New()
	a, b, cin := bc.NewSignal(), bc.NewSignal(), bc.NewSignal()
	s, cout := bc.FullAdder(a, b, cin)
	f := bc.ToCNF(map[boolcirc.Signal]bool{s: false, cout: true})
	res := DPLL(f, 0)
	if res.Status != Satisfiable {
		t.Fatal("adder CNF should be SAT")
	}
	ones := 0
	for _, sig := range []boolcirc.Signal{a, b, cin} {
		if res.Assignment[sig] {
			ones++
		}
	}
	if ones != 2 {
		t.Fatalf("got %d ones, want 2", ones)
	}
	if !f.Satisfied(res.Assignment) {
		t.Fatal("DPLL assignment does not satisfy the CNF")
	}
}

func TestDPLLFactorizationCNF(t *testing.T) {
	// 35 = p·q as CNF: DPLL should find 5×7 or 7×5.
	bc := boolcirc.New()
	pw := bc.NewSignals(5)
	qw := bc.NewSignals(3)
	prod := bc.Multiplier(pw, qw)
	pins := map[boolcirc.Signal]bool{}
	for i, sig := range prod {
		pins[sig] = 35&(1<<uint(i)) != 0
	}
	f := bc.ToCNF(pins)
	res := DPLL(f, 0)
	if res.Status != Satisfiable {
		t.Fatal("factorization CNF should be SAT")
	}
	p := boolcirc.WordToUint(boolcirc.Assignment(res.Assignment), pw)
	q := boolcirc.WordToUint(boolcirc.Assignment(res.Assignment), qw)
	if p*q != 35 {
		t.Fatalf("DPLL factored 35 as %d×%d", p, q)
	}
}

// Property: DPLL agrees with brute-force satisfiability on random small
// formulas.
func TestDPLLMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nv := 2 + r.Intn(6)
		nc := 1 + r.Intn(12)
		formula := boolcirc.CNF{NumVars: nv}
		for c := 0; c < nc; c++ {
			width := 1 + r.Intn(3)
			clause := make(boolcirc.Clause, 0, width)
			for k := 0; k < width; k++ {
				l := boolcirc.Lit(1 + r.Intn(nv))
				if r.Intn(2) == 0 {
					l = -l
				}
				clause = append(clause, l)
			}
			formula.Clauses = append(formula.Clauses, clause)
		}
		// Brute force.
		bruteSAT := false
		assign := make([]bool, nv)
		for m := 0; m < 1<<uint(nv); m++ {
			for v := 0; v < nv; v++ {
				assign[v] = m&(1<<uint(v)) != 0
			}
			if formula.Satisfied(assign) {
				bruteSAT = true
				break
			}
		}
		res := DPLL(formula, 0)
		if bruteSAT != (res.Status == Satisfiable) {
			return false
		}
		if res.Status == Satisfiable && !formula.Satisfied(res.Assignment) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
