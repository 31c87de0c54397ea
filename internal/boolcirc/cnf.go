package boolcirc

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
)

// Lit is a CNF literal: positive values are variables, negative values
// negations; variables are 1-based (DIMACS convention). Variable v
// corresponds to Signal v-1.
type Lit int

// Clause is a disjunction of literals.
type Clause []Lit

// CNF is a conjunctive-normal-form formula over the circuit's signals.
type CNF struct {
	NumVars int
	Clauses []Clause
}

// Random3SAT draws a formula of nc clauses over nv variables from rng.
// Each clause takes three distinct variables (all nv when nv < 3), each
// with a random sign; the draw is rejection sampling, so one seed gives
// one formula.
func Random3SAT(rng *rand.Rand, nv, nc int) CNF {
	formula := CNF{NumVars: nv}
	for c := 0; c < nc; c++ {
		seen := map[int]bool{}
		var clause Clause
		for len(clause) < 3 && len(clause) < nv {
			v := 1 + rng.Intn(nv)
			if seen[v] {
				continue
			}
			seen[v] = true
			l := Lit(v)
			if rng.Intn(2) == 0 {
				l = -l
			}
			clause = append(clause, l)
		}
		formula.Clauses = append(formula.Clauses, clause)
	}
	return formula
}

// lit converts a signal to a positive literal.
func lit(s Signal) Lit { return Lit(int(s) + 1) }

// ToCNF produces the Tseitin encoding of the circuit: one variable per
// signal, gate-consistency clauses per gate, unit clauses for constants,
// and (optionally) unit clauses pinning signals through pins. This is the
// boolean system handed to the direct-protocol SAT baselines; the paper
// notes the SOLCs encode "the SAT representing the specific problem"
// (Sec. VIII).
func (c *Circuit) ToCNF(pins map[Signal]bool) CNF {
	cnf := CNF{NumVars: c.nSignals}
	add := func(ls ...Lit) {
		cl := make(Clause, len(ls))
		copy(cl, ls)
		cnf.Clauses = append(cnf.Clauses, cl)
	}
	for s, v := range c.constVal {
		l := lit(s)
		if !v {
			l = -l
		}
		add(l)
	}
	for s, v := range pins {
		l := lit(s)
		if !v {
			l = -l
		}
		add(l)
	}
	for _, g := range c.Gates {
		a, b, o := lit(g.A), lit(g.B), lit(g.Out)
		switch g.Op {
		case And:
			add(-a, -b, o)
			add(a, -o)
			add(b, -o)
		case Or:
			add(a, b, -o)
			add(-a, o)
			add(-b, o)
		case Nand:
			add(-a, -b, -o)
			add(a, o)
			add(b, o)
		case Nor:
			add(a, b, o)
			add(-a, -o)
			add(-b, -o)
		case Xor:
			add(-a, -b, -o)
			add(a, b, -o)
			add(-a, b, o)
			add(a, -b, o)
		case Xnor:
			add(-a, -b, o)
			add(a, b, o)
			add(-a, b, -o)
			add(a, -b, -o)
		case Not:
			add(-a, -o)
			add(a, o)
		}
	}
	return cnf
}

// WriteDIMACS serializes the formula in DIMACS CNF format.
func (f CNF) WriteDIMACS(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "p cnf %d %d\n", f.NumVars, len(f.Clauses)); err != nil {
		return err
	}
	for _, cl := range f.Clauses {
		for _, l := range cl {
			if _, err := fmt.Fprintf(bw, "%d ", l); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(bw, "0"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Satisfied reports whether assign (indexed by signal) satisfies every
// clause.
func (f CNF) Satisfied(assign []bool) bool {
	for _, cl := range f.Clauses {
		ok := false
		for _, l := range cl {
			v := assign[absInt(int(l))-1]
			if (l > 0) == v {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
