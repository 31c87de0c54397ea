// Package sat provides the direct-protocol boolean-satisfiability
// baselines: a DPLL solver with unit propagation and pure-literal
// elimination, and a conflict-driven clause-learning solver (cdcl.go).
// The paper maps both of its benchmark problems onto SAT instances
// (Sec. VIII); these solvers both serve as classical comparators and
// independently verify SOLC solutions.
package sat

import (
	"repro/internal/boolcirc"
)

// Status is a solver outcome.
type Status int

// Solver outcomes.
const (
	Unknown Status = iota
	Satisfiable
	Unsatisfiable
)

func (s Status) String() string {
	switch s {
	case Satisfiable:
		return "SAT"
	case Unsatisfiable:
		return "UNSAT"
	default:
		return "UNKNOWN"
	}
}

// Result reports a SAT solve.
type Result struct {
	Status Status
	// Assignment is valid when Status == Satisfiable; Assignment[v] is the
	// value of variable v+1.
	Assignment []bool
	// Decisions and Propagations count search effort.
	Decisions    int
	Propagations int
}

// DPLL solves the formula by depth-first search with unit propagation and
// pure-literal elimination. maxDecisions bounds the search (0 =
// unbounded); exceeding it yields Status Unknown.
func DPLL(f boolcirc.CNF, maxDecisions int) Result {
	s := &dpllState{
		nVars:   f.NumVars,
		clauses: f.Clauses,
		assign:  make([]int8, f.NumVars+1), // 0 unassigned, +1 true, -1 false
		maxDec:  maxDecisions,
	}
	res := Result{}
	st := s.solve(&res)
	res.Status = st
	if st == Satisfiable {
		res.Assignment = make([]bool, f.NumVars)
		for v := 1; v <= f.NumVars; v++ {
			res.Assignment[v-1] = s.assign[v] >= 0 // unassigned -> true (don't care)
		}
	}
	return res
}

type dpllState struct {
	nVars   int
	clauses []boolcirc.Clause
	assign  []int8
	maxDec  int
	dec     int
}

// litVal returns +1 satisfied, -1 falsified, 0 unassigned.
func (s *dpllState) litVal(l boolcirc.Lit) int8 {
	v := l
	if v < 0 {
		v = -v
	}
	a := s.assign[v]
	if a == 0 {
		return 0
	}
	if (l > 0) == (a > 0) {
		return 1
	}
	return -1
}

// propagate applies unit propagation; returns false on conflict and the
// list of variables assigned (for undo).
func (s *dpllState) propagate(trail *[]int) bool {
	for changed := true; changed; {
		changed = false
		for _, cl := range s.clauses {
			var unit boolcirc.Lit
			unassigned := 0
			satisfied := false
			for _, l := range cl {
				switch s.litVal(l) {
				case 1:
					satisfied = true
				case 0:
					unassigned++
					unit = l
				}
				if satisfied {
					break
				}
			}
			if satisfied {
				continue
			}
			if unassigned == 0 {
				return false // conflict
			}
			if unassigned == 1 {
				v := unit
				if v < 0 {
					v = -v
				}
				if unit > 0 {
					s.assign[v] = 1
				} else {
					s.assign[v] = -1
				}
				*trail = append(*trail, int(v))
				changed = true
			}
		}
	}
	return true
}

func (s *dpllState) pickVar() int {
	// First unassigned variable appearing in an unsatisfied clause.
	for _, cl := range s.clauses {
		satisfied := false
		for _, l := range cl {
			if s.litVal(l) == 1 {
				satisfied = true
				break
			}
		}
		if satisfied {
			continue
		}
		for _, l := range cl {
			if s.litVal(l) == 0 {
				if l < 0 {
					return int(-l)
				}
				return int(l)
			}
		}
	}
	return 0
}

func (s *dpllState) solve(res *Result) Status {
	var trail []int
	if !s.propagate(&trail) {
		s.undo(trail)
		return Unsatisfiable
	}
	res.Propagations += len(trail)
	v := s.pickVar()
	if v == 0 {
		return Satisfiable // every clause satisfied
	}
	if s.maxDec > 0 && s.dec >= s.maxDec {
		s.undo(trail)
		return Unknown
	}
	s.dec++
	res.Decisions++
	for _, val := range []int8{1, -1} {
		s.assign[v] = val
		st := s.solve(res)
		if st == Satisfiable {
			return st
		}
		s.assign[v] = 0
		if st == Unknown {
			s.undo(trail)
			return Unknown
		}
	}
	s.undo(trail)
	return Unsatisfiable
}

func (s *dpllState) undo(trail []int) {
	for _, v := range trail {
		s.assign[v] = 0
	}
}
