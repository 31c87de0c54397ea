package sat

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/boolcirc"
)

func TestCDCLTrivial(t *testing.T) {
	f := boolcirc.CNF{NumVars: 1, Clauses: []boolcirc.Clause{cl(1)}}
	res := CDCL(f, 0)
	if res.Status != Satisfiable || !res.Assignment[0] {
		t.Fatalf("got %+v", res)
	}
	f = boolcirc.CNF{NumVars: 1, Clauses: []boolcirc.Clause{cl(1), cl(-1)}}
	if CDCL(f, 0).Status != Unsatisfiable {
		t.Fatal("x ∧ ¬x should be UNSAT")
	}
	// An empty clause has no literal to satisfy it.
	f = boolcirc.CNF{NumVars: 1, Clauses: []boolcirc.Clause{{}}}
	if got := CDCL(f, 0).Status; got != Unsatisfiable {
		t.Fatalf("formula with an empty clause: %v, want UNSAT", got)
	}
}

func TestCDCLTautologyIgnored(t *testing.T) {
	f := boolcirc.CNF{NumVars: 2, Clauses: []boolcirc.Clause{{1, -1}, {2}}}
	res := CDCL(f, 0)
	if res.Status != Satisfiable || !res.Assignment[1] {
		t.Fatalf("got %+v", res)
	}
}

func TestCDCLPigeonhole(t *testing.T) {
	// 4 pigeons, 3 holes — UNSAT, requires real conflict analysis.
	const pigeons, holes = 4, 3
	v := func(i, h int) boolcirc.Lit { return boolcirc.Lit(i*holes + h + 1) }
	f := boolcirc.CNF{NumVars: pigeons * holes}
	for i := 0; i < pigeons; i++ {
		var c boolcirc.Clause
		for h := 0; h < holes; h++ {
			c = append(c, v(i, h))
		}
		f.Clauses = append(f.Clauses, c)
	}
	for h := 0; h < holes; h++ {
		for i := 0; i < pigeons; i++ {
			for j := i + 1; j < pigeons; j++ {
				f.Clauses = append(f.Clauses, cl(-v(i, h), -v(j, h)))
			}
		}
	}
	if res := CDCL(f, 0); res.Status != Unsatisfiable {
		t.Fatalf("pigeonhole(4,3) = %v, want UNSAT", res.Status)
	}
}

func TestCDCLFactorizationCNF(t *testing.T) {
	bc := boolcirc.New()
	pw := bc.NewSignals(5)
	qw := bc.NewSignals(3)
	prod := bc.Multiplier(pw, qw)
	pins := map[boolcirc.Signal]bool{}
	for i, sig := range prod {
		pins[sig] = 35&(1<<uint(i)) != 0
	}
	f := bc.ToCNF(pins)
	res := CDCL(f, 0)
	if res.Status != Satisfiable {
		t.Fatal("factorization CNF should be SAT")
	}
	if !f.Satisfied(res.Assignment) {
		t.Fatal("CDCL assignment does not satisfy the CNF")
	}
	p := boolcirc.WordToUint(boolcirc.Assignment(res.Assignment), pw)
	q := boolcirc.WordToUint(boolcirc.Assignment(res.Assignment), qw)
	if p*q != 35 {
		t.Fatalf("CDCL factored 35 as %d×%d", p, q)
	}
}

func TestCDCLPrimeFactorizationUNSAT(t *testing.T) {
	// 47 is prime: the multiplier CNF with the trivial factorization
	// excluded (np = 5, nq = 3) is UNSAT — the direct-protocol analogue of
	// Fig. 13.
	bc := boolcirc.New()
	pw := bc.NewSignals(5)
	qw := bc.NewSignals(3)
	prod := bc.Multiplier(pw, qw)
	pins := map[boolcirc.Signal]bool{}
	for i, sig := range prod {
		pins[sig] = 47&(1<<uint(i)) != 0
	}
	f := bc.ToCNF(pins)
	if res := CDCL(f, 0); res.Status != Unsatisfiable {
		t.Fatalf("prime CNF = %v, want UNSAT", res.Status)
	}
}

// Property: CDCL agrees with DPLL (itself brute-force-verified) on random
// small formulas, and its SAT assignments verify.
func TestCDCLMatchesDPLL(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nv := 2 + r.Intn(8)
		nc := 1 + r.Intn(20)
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
		want := DPLL(formula, 0).Status
		got := CDCL(formula, 0)
		if got.Status != want {
			return false
		}
		if got.Status == Satisfiable && !formula.Satisfied(got.Assignment) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCDCLConflictBudget(t *testing.T) {
	// Pigeonhole with a tiny conflict budget must return Unknown.
	const pigeons, holes = 6, 5
	v := func(i, h int) boolcirc.Lit { return boolcirc.Lit(i*holes + h + 1) }
	f := boolcirc.CNF{NumVars: pigeons * holes}
	for i := 0; i < pigeons; i++ {
		var c boolcirc.Clause
		for h := 0; h < holes; h++ {
			c = append(c, v(i, h))
		}
		f.Clauses = append(f.Clauses, c)
	}
	for h := 0; h < holes; h++ {
		for i := 0; i < pigeons; i++ {
			for j := i + 1; j < pigeons; j++ {
				f.Clauses = append(f.Clauses, cl(-v(i, h), -v(j, h)))
			}
		}
	}
	if res := CDCL(f, 3); res.Status != Unknown {
		t.Fatalf("tiny budget should yield Unknown, got %v", res.Status)
	}
}

func TestLubySequence(t *testing.T) {
	want := []int{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(i + 1); got != w {
			t.Fatalf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}
