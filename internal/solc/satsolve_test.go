package solc

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/boolcirc"
	"repro/internal/circuit"
	"repro/internal/sat"
)

func TestSolveCNFSimple(t *testing.T) {
	// (x1 ∨ ¬x2) ∧ (x2 ∨ x3) ∧ (¬x1 ∨ ¬x3)
	f := boolcirc.CNF{NumVars: 3, Clauses: []boolcirc.Clause{
		{1, -2}, {2, 3}, {-1, -3},
	}}
	opts := DefaultOptions()
	opts.TEnd = 100
	res, err := SolveCNF(f, circuit.Default(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("not solved: %s", res.Result.Reason)
	}
	if !f.Satisfied(res.Assignment) {
		t.Fatal("assignment does not satisfy formula")
	}
}

func TestSolveCNFRandom3SATAgainstDPLL(t *testing.T) {
	if testing.Short() {
		t.Skip("dynamical run")
	}
	rng := rand.New(rand.NewSource(42))
	// A small under-constrained random 3-SAT instance (clause ratio 3):
	// satisfiable with overwhelming probability; DPLL cross-checks.
	nv, nc := 6, 18
	f := boolcirc.CNF{NumVars: nv}
	for c := 0; c < nc; c++ {
		seen := map[int]bool{}
		var clause boolcirc.Clause
		for len(clause) < 3 {
			v := 1 + rng.Intn(nv)
			if seen[v] {
				continue
			}
			seen[v] = true
			l := boolcirc.Lit(v)
			if rng.Intn(2) == 0 {
				l = -l
			}
			clause = append(clause, l)
		}
		f.Clauses = append(f.Clauses, clause)
	}
	dp := sat.DPLL(f, 0)
	if dp.Status != sat.Satisfiable {
		t.Skip("random instance happened to be UNSAT")
	}
	opts := DefaultOptions()
	opts.TEnd = 150
	opts.MaxAttempts = 4
	res, err := SolveCNF(f, circuit.Default(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("SOLC missed a satisfiable 3-SAT instance: %s", res.Result.Reason)
	}
}

func TestSolveCNFRejectsEmptyClause(t *testing.T) {
	f := boolcirc.CNF{NumVars: 1, Clauses: []boolcirc.Clause{{}}}
	if _, err := SolveCNF(f, circuit.Default(), DefaultOptions()); err == nil {
		t.Fatal("empty clause should error")
	}
}

// fuzzCNF decodes a byte string into a tiny CNF: data[0] picks 1–4
// variables, data[1] 1–6 clauses, and each clause takes a length byte
// (1–3 literals) followed by one byte per literal (variable from the low
// bits, sign from the high bit). Missing bytes read as zero.
func fuzzCNF(data []byte) boolcirc.CNF {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	f := boolcirc.CNF{NumVars: 1 + int(at(0)%4)}
	nc := 1 + int(at(1)%6)
	p := 2
	for c := 0; c < nc; c++ {
		n := 1 + int(at(p)%3)
		p++
		clause := make(boolcirc.Clause, n)
		for k := range clause {
			b := at(p)
			p++
			l := boolcirc.Lit(1 + int(b&0x7f)%f.NumVars)
			if b&0x80 != 0 {
				l = -l
			}
			clause[k] = l
		}
		f.Clauses = append(f.Clauses, clause)
	}
	return f
}

// FuzzSolveCNF is the differential check of the SOLC SAT face against the
// CDCL baseline on tiny formulas: a solved SOLC run returns an assignment
// that satisfies the CNF on a formula CDCL calls satisfiable, an UNSAT
// formula is never solved, nothing panics, and the deterministic winner
// policy returns the same result at Parallelism 1 and 4. (Wall and the
// work totals — Steps, FEvals, Energy, Launched, Cancelled — may differ
// when solved: attempts above the winner are cancelled part-way at the
// parallel setting.) The seed corpus runs under plain `go test`; extend
// it with `go test -fuzz FuzzSolveCNF`.
func FuzzSolveCNF(f *testing.F) {
	f.Add([]byte{1, 1, 1, 0, 1, 1, 0x80, 0x81})                            // (x1∨x2)(¬x1∨¬x2)
	f.Add([]byte{0, 0, 0, 0x80})                                           // (¬x1)
	f.Add([]byte{0, 1, 0, 0, 0, 0x80})                                     // (x1)(¬x1): UNSAT
	f.Add([]byte{1, 3, 1, 0, 1, 1, 0, 0x81, 1, 0x80, 1, 1, 0x80, 0x81})    // all four 2-clauses over x1,x2: UNSAT
	f.Add([]byte{2, 1, 2, 0, 0x80, 1, 1, 2, 2})                            // (x1∨¬x1∨x2)(x3∨x3)
	f.Add([]byte{3, 5, 2, 0, 0x81, 2, 1, 2, 3, 2, 0x82, 0x83, 0x80, 0, 3}) // 4 vars, 6 clauses
	f.Fuzz(func(t *testing.T, data []byte) {
		cnf := fuzzCNF(data)
		want := sat.CDCL(cnf, 0)
		if want.Status == sat.Unknown {
			t.Fatal("unbounded CDCL returned Unknown")
		}
		var results [2]SATResult
		for k, par := range []int{1, 4} {
			opts := DefaultOptions()
			opts.TEnd = 10
			opts.MaxAttempts = 2
			opts.Parallelism = par
			res, err := SolveCNF(cnf, circuit.Default(), opts)
			if err != nil {
				t.Fatalf("%v, Parallelism %d: %v", cnf.Clauses, par, err)
			}
			if res.Solved {
				if want.Status != sat.Satisfiable {
					t.Fatalf("%v: SOLC solved a formula CDCL reports %v", cnf.Clauses, want.Status)
				}
				if !cnf.Satisfied(res.Assignment) {
					t.Fatalf("%v: SOLC assignment %v does not satisfy the formula", cnf.Clauses, res.Assignment)
				}
			}
			results[k] = res
		}
		a, b := results[0], results[1]
		ra, rb := a.Result, b.Result
		if a.Solved != b.Solved || ra.Reason != rb.Reason || ra.Attempts != rb.Attempts ||
			ra.WinnerAttempt != rb.WinnerAttempt || ra.WinnerSeed != rb.WinnerSeed ||
			ra.WinnerMember != rb.WinnerMember || ra.T != rb.T || !slices.Equal(a.Assignment, b.Assignment) ||
			!slices.Equal(ra.Assignment, rb.Assignment) {
			t.Fatalf("%v: Parallelism 1 and 4 disagree:\n%+v\n%+v", cnf.Clauses, a, b)
		}
		if !a.Solved && (ra.Steps != rb.Steps || ra.Launched != rb.Launched) {
			t.Fatalf("%v: unsolved runs differ: steps %d/%d launched %d/%d",
				cnf.Clauses, ra.Steps, rb.Steps, ra.Launched, rb.Launched)
		}
	})
}
