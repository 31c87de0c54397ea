package boolcirc

import (
	"strings"
	"testing"
)

func TestFromCNFStructure(t *testing.T) {
	f := CNF{NumVars: 3, Clauses: []Clause{{1, -2}, {2, 3}, {-1, -3}}}
	c, vars, outs, err := FromCNF(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(vars) != 3 || len(outs) != 3 {
		t.Fatalf("vars=%d outs=%d", len(vars), len(outs))
	}
	// Evaluate under a satisfying assignment: x1=1, x2=1, x3=0.
	c.MarkInput(vars...)
	assign, err := c.Eval([]bool{true, true, false})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if !assign[o] {
			t.Fatalf("clause %d output false under satisfying assignment", i)
		}
	}
	// Falsifying assignment for clause 0: x1=0, x2=1.
	assign, err = c.Eval([]bool{false, true, false})
	if err != nil {
		t.Fatal(err)
	}
	if assign[outs[0]] {
		t.Fatal("clause (x1 ∨ ¬x2) should be false at (0,1)")
	}
}

func TestFromCNFSharedNegation(t *testing.T) {
	// A variable negated in two clauses should get exactly one NOT gate.
	f := CNF{NumVars: 1, Clauses: []Clause{{-1}, {-1}}}
	c, _, _, err := FromCNF(f)
	if err != nil {
		t.Fatal(err)
	}
	nots := 0
	for _, g := range c.Gates {
		if g.Op == Not {
			nots++
		}
	}
	if nots != 1 {
		t.Fatalf("NOT gates = %d, want 1 (shared)", nots)
	}
}

func TestFromCNFErrors(t *testing.T) {
	cases := []struct {
		name string
		f    CNF
	}{
		{"empty clause", CNF{NumVars: 1, Clauses: []Clause{{}}}},
		{"out-of-range literal", CNF{NumVars: 1, Clauses: []Clause{{5}}}},
		{"negative variable count", CNF{NumVars: -1, Clauses: []Clause{{1}}}},
	}
	for _, tc := range cases {
		if _, _, _, err := FromCNF(tc.f); err == nil {
			t.Errorf("%s: expected an error", tc.name)
		}
	}
}

func TestParseDIMACS(t *testing.T) {
	src := `c a comment
p cnf 3 2
1 -2 0
2 3 0
`
	f, err := ParseDIMACS(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if f.NumVars != 3 || len(f.Clauses) != 2 {
		t.Fatalf("parsed %d vars %d clauses", f.NumVars, len(f.Clauses))
	}
	if f.Clauses[0][1] != -2 {
		t.Fatalf("clause 0 = %v", f.Clauses[0])
	}
}

func TestParseDIMACSRoundTrip(t *testing.T) {
	c := New()
	a, b := c.NewSignal(), c.NewSignal()
	c.Xor(a, b)
	cnf := c.ToCNF(nil)
	var sb strings.Builder
	if err := cnf.WriteDIMACS(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := ParseDIMACS(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.NumVars != cnf.NumVars || len(back.Clauses) != len(cnf.Clauses) {
		t.Fatalf("round trip mismatch: %d/%d vs %d/%d",
			back.NumVars, len(back.Clauses), cnf.NumVars, len(cnf.Clauses))
	}
}

func TestParseDIMACSErrors(t *testing.T) {
	if _, err := ParseDIMACS(strings.NewReader("1 2 0\n")); err == nil {
		t.Fatal("clause before header should error")
	}
	if _, err := ParseDIMACS(strings.NewReader("p cnf x 2\n")); err == nil {
		t.Fatal("bad header should error")
	}
	if _, err := ParseDIMACS(strings.NewReader("p cnf 2 1\n1 z 0\n")); err == nil {
		t.Fatal("bad literal should error")
	}
	// Each of these used to be accepted, and dmm-sat then panicked in
	// the DPLL baseline (index out of range) or ran out of memory.
	for _, in := range []string{
		"p cnf 2 1\n1 -3 0\n",         // literal above the declared count
		"p cnf -1 1\n1 0\n",           // negative variable count
		"p cnf 99999999999 1\n1 0\n",  // count beyond MaxDIMACSVars
		"p cnf 1 1\np cnf 3 1\n3 0\n", // a second problem line
		"p cnf 3 x\n1 0\n",            // clause count not an integer
		"p cnf 3 -5\n1 0\n",           // negative clause count
		"p cnf 3 2\n1 0\n",            // fewer clauses than declared
		"p cnf 3 1\n1 0\n2 0\n",       // more clauses than declared
		"c comment only\n",            // no problem line
	} {
		if _, err := ParseDIMACS(strings.NewReader(in)); err == nil {
			t.Errorf("%q: want an error", in)
		}
	}
}
