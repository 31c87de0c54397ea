package sat

import (
	"repro/internal/boolcirc"
)

// CDCL is a conflict-driven clause-learning solver with two-watched-literal
// propagation, first-UIP conflict analysis, non-chronological backjumping
// and Luby-style restarts — the modern direct-protocol baseline, far
// stronger than plain DPLL on structured instances like the circuit CNFs
// this repository produces.
//
// maxConflicts bounds the search (0 = unbounded); exceeding it returns
// Status Unknown.
func CDCL(f boolcirc.CNF, maxConflicts int) Result {
	for _, cl := range f.Clauses {
		if len(cl) == 0 { // no literal can satisfy it
			return Result{Status: Unsatisfiable}
		}
	}
	s := newCDCLState(f)
	res := Result{}
	// Top-level unit clauses.
	for _, cl := range s.clauses {
		if len(cl.lits) == 1 {
			l := cl.lits[0]
			switch s.value(l) {
			case vFalse:
				res.Status = Unsatisfiable
				return res
			case vUnknown:
				s.assign(l, nil)
			}
		}
	}
	conflicts := 0
	lubyIdx := 1
	restartBudget := 32 * luby(lubyIdx)
	for {
		confl := s.propagate(&res)
		if confl != nil {
			conflicts++
			res.Decisions = s.decisions
			if s.level == 0 {
				res.Status = Unsatisfiable
				return res
			}
			if maxConflicts > 0 && conflicts > maxConflicts {
				res.Status = Unknown
				return res
			}
			learnt, backLevel := s.analyze(confl)
			s.backtrack(backLevel)
			s.learn(learnt)
			restartBudget--
			if restartBudget <= 0 {
				lubyIdx++
				restartBudget = 32 * luby(lubyIdx)
				s.backtrack(0)
			}
			continue
		}
		// Pick a branching variable.
		v := s.pickBranch()
		if v == 0 {
			res.Status = Satisfiable
			res.Assignment = make([]bool, s.nVars)
			for i := 1; i <= s.nVars; i++ {
				res.Assignment[i-1] = s.assigns[i] == vTrue
			}
			res.Decisions = s.decisions
			return res
		}
		s.level++
		s.decisions++
		s.assign(boolcirc.Lit(v), nil)
	}
}

// luby returns the i-th element of the Luby restart sequence
// (1,1,2,1,1,2,4,...).
func luby(i int) int {
	for k := 1; ; k++ {
		if i == (1<<uint(k))-1 {
			return 1 << uint(k-1)
		}
		if i < (1<<uint(k))-1 {
			return luby(i - (1 << uint(k-1)) + 1)
		}
	}
}

type value int8

const (
	vUnknown value = iota
	vTrue
	vFalse
)

type cdclClause struct {
	lits []boolcirc.Lit
}

type cdclState struct {
	nVars   int
	clauses []*cdclClause
	// watches[litIndex] lists clauses watching that literal.
	watches [][]*cdclClause

	assigns  []value       // 1-based variable values
	levels   []int         // decision level per variable
	reasonCl []*cdclClause // clause that implied the variable (nil = decision)
	trail    []boolcirc.Lit
	trailLim []int // trail length at each decision level
	qhead    int
	level    int
	// seen marks variables during conflict analysis; analyze leaves it
	// all false on return.
	seen []bool

	activity  []float64
	varInc    float64
	decisions int
}

func newCDCLState(f boolcirc.CNF) *cdclState {
	s := &cdclState{
		nVars:    f.NumVars,
		watches:  make([][]*cdclClause, 2*(f.NumVars+1)),
		assigns:  make([]value, f.NumVars+1),
		levels:   make([]int, f.NumVars+1),
		reasonCl: make([]*cdclClause, f.NumVars+1),
		seen:     make([]bool, f.NumVars+1),
		activity: make([]float64, f.NumVars+1),
		varInc:   1,
	}
	for _, cl := range f.Clauses {
		lits := dedupe(cl)
		if lits == nil {
			continue // tautology
		}
		c := &cdclClause{lits: lits}
		s.clauses = append(s.clauses, c)
		if len(lits) >= 2 {
			s.watch(lits[0], c)
			s.watch(lits[1], c)
		}
	}
	return s
}

// dedupe removes duplicate literals, keeping first occurrences in order,
// and returns nil for tautologies. Clauses are short, so it scans the
// literals kept so far instead of building a set.
func dedupe(cl boolcirc.Clause) []boolcirc.Lit {
	out := make([]boolcirc.Lit, 0, len(cl))
next:
	for _, l := range cl {
		for _, k := range out {
			if k == -l {
				return nil
			}
			if k == l {
				continue next
			}
		}
		out = append(out, l)
	}
	return out
}

func litIdx(l boolcirc.Lit) int {
	if l > 0 {
		return 2 * int(l)
	}
	return 2*int(-l) + 1
}

func (s *cdclState) watch(l boolcirc.Lit, c *cdclClause) {
	s.watches[litIdx(l)] = append(s.watches[litIdx(l)], c)
}

func (s *cdclState) value(l boolcirc.Lit) value {
	v := l
	if v < 0 {
		v = -v
	}
	a := s.assigns[v]
	if a == vUnknown {
		return vUnknown
	}
	if (l > 0) == (a == vTrue) {
		return vTrue
	}
	return vFalse
}

// assign sets literal l true with the given reason clause (nil for a
// decision or a top-level unit).
func (s *cdclState) assign(l boolcirc.Lit, reason *cdclClause) {
	v := l
	if v < 0 {
		v = -v
	}
	if l > 0 {
		s.assigns[v] = vTrue
	} else {
		s.assigns[v] = vFalse
	}
	s.levels[v] = s.level
	s.reasonCl[v] = reason
	if len(s.trailLim) < s.level {
		for len(s.trailLim) < s.level {
			s.trailLim = append(s.trailLim, len(s.trail))
		}
	}
	s.trail = append(s.trail, l)
}

// propagate runs two-watched-literal unit propagation; returns the
// conflicting clause or nil. Each watch list is compacted in place: the
// clauses that keep watching the false literal are shifted down over the
// ones that moved to another watch, in their original order.
func (s *cdclState) propagate(res *Result) *cdclClause {
	for s.qhead < len(s.trail) {
		l := s.trail[s.qhead]
		s.qhead++
		falseLit := -l
		ws := s.watches[litIdx(falseLit)]
		n := 0
		for wi := 0; wi < len(ws); wi++ {
			c := ws[wi]
			// Ensure the false literal is in slot 1.
			if c.lits[0] == falseLit {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			if s.value(c.lits[0]) == vTrue {
				ws[n] = c
				n++
				continue
			}
			// Find a new literal to watch. It is not false, so it is not
			// falseLit, and the append goes to another watch list.
			moved := false
			for k := 2; k < len(c.lits); k++ {
				if s.value(c.lits[k]) != vFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watch(c.lits[1], c)
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			ws[n] = c
			n++
			// Clause is unit or conflicting on lits[0].
			switch s.value(c.lits[0]) {
			case vFalse:
				// Conflict: keep the remaining watches and report.
				n += copy(ws[n:], ws[wi+1:])
				s.watches[litIdx(falseLit)] = ws[:n]
				s.qhead = len(s.trail)
				return c
			case vUnknown:
				res.Propagations++
				s.assign(c.lits[0], c)
			}
		}
		s.watches[litIdx(falseLit)] = ws[:n]
	}
	return nil
}

// analyze performs first-UIP conflict analysis and returns the learnt
// clause and the backjump level.
func (s *cdclState) analyze(confl *cdclClause) ([]boolcirc.Lit, int) {
	seen := s.seen
	learnt := []boolcirc.Lit{0} // slot 0 takes the asserting literal
	counter := 0
	var p boolcirc.Lit
	idx := len(s.trail) - 1
	reason := confl.lits
	for {
		for _, q := range reason {
			if q == p {
				continue
			}
			v := q
			if v < 0 {
				v = -v
			}
			if seen[v] || s.levels[v] == 0 {
				continue
			}
			seen[v] = true
			s.bump(int(v))
			if s.levels[v] == s.level {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Walk the trail backwards for the next seen literal at the
		// current level.
		for {
			pl := s.trail[idx]
			v := pl
			if v < 0 {
				v = -v
			}
			if seen[v] {
				p = pl
				idx--
				break
			}
			idx--
		}
		counter--
		v := p
		if v < 0 {
			v = -v
		}
		seen[v] = false
		if counter == 0 {
			break
		}
		reason = s.reasonLits(int(v))
	}
	learnt[0] = -p
	// Backjump level: the second-highest level in the learnt clause. The
	// loop also clears the marks of the lower-level literals, the only
	// ones still set: each current-level mark was cleared as it was
	// resolved.
	back := 0
	for _, q := range learnt[1:] {
		v := q
		if v < 0 {
			v = -v
		}
		seen[v] = false
		if s.levels[v] > back {
			back = s.levels[v]
		}
	}
	return learnt, back
}

func (s *cdclState) reasonLits(v int) []boolcirc.Lit {
	if s.reasonCl[v] == nil {
		return nil
	}
	return s.reasonCl[v].lits
}

// backtrack undoes assignments above the given level.
func (s *cdclState) backtrack(level int) {
	if s.level <= level {
		return
	}
	limit := 0
	if level < len(s.trailLim) {
		limit = s.trailLim[level]
	}
	for i := len(s.trail) - 1; i >= limit; i-- {
		v := s.trail[i]
		if v < 0 {
			v = -v
		}
		s.assigns[v] = vUnknown
		s.reasonCl[v] = nil
	}
	s.trail = s.trail[:limit]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
	s.level = level
}

// learn adds the learnt clause and asserts its first literal.
func (s *cdclState) learn(lits []boolcirc.Lit) {
	c := &cdclClause{lits: lits}
	s.clauses = append(s.clauses, c)
	if len(lits) >= 2 {
		s.watch(lits[0], c)
		s.watch(lits[1], c)
		s.assign(lits[0], c)
	} else {
		s.assign(lits[0], nil)
	}
	s.decayActivities()
}

// pickBranch returns the unassigned variable with the highest VSIDS
// activity (0 when all assigned).
func (s *cdclState) pickBranch() int {
	best, bestAct := 0, -1.0
	for v := 1; v <= s.nVars; v++ {
		if s.assigns[v] == vUnknown && s.activity[v] > bestAct {
			best, bestAct = v, s.activity[v]
		}
	}
	return best
}

func (s *cdclState) bump(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
}

func (s *cdclState) decayActivities() { s.varInc /= 0.95 }
