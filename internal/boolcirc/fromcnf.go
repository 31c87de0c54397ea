package boolcirc

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// FromCNF builds a boolean circuit encoding the formula: one signal per
// variable, one NOT gate per variable that occurs negated, and an OR tree
// per clause. Pinning every returned clause output to 1 (and solving in
// solution mode) makes the SOLC a SAT solver — the paper notes its SOLCs
// "encode directly the SAT representing the specific problem"
// (Sec. VIII).
func FromCNF(f CNF) (c *Circuit, vars []Signal, clauseOuts []Signal, err error) {
	if f.NumVars < 0 {
		return nil, nil, nil, fmt.Errorf("boolcirc: negative variable count %d", f.NumVars)
	}
	c = New()
	vars = c.NewSignals(f.NumVars)
	negOf := make(map[int]Signal)
	litSig := func(l Lit) (Signal, error) {
		if l == 0 {
			return 0, fmt.Errorf("boolcirc: zero literal")
		}
		v := int(l)
		neg := false
		if v < 0 {
			v, neg = -v, true
		}
		if v > f.NumVars {
			return 0, fmt.Errorf("boolcirc: literal %d exceeds variable count %d", l, f.NumVars)
		}
		s := vars[v-1]
		if !neg {
			return s, nil
		}
		if ns, ok := negOf[v]; ok {
			return ns, nil
		}
		ns := c.Not(s)
		negOf[v] = ns
		return ns, nil
	}
	for _, cl := range f.Clauses {
		if len(cl) == 0 {
			return nil, nil, nil, fmt.Errorf("boolcirc: empty clause (trivially UNSAT)")
		}
		acc, err2 := litSig(cl[0])
		if err2 != nil {
			return nil, nil, nil, err2
		}
		for _, l := range cl[1:] {
			s, err2 := litSig(l)
			if err2 != nil {
				return nil, nil, nil, err2
			}
			acc = c.Or(acc, s)
		}
		clauseOuts = append(clauseOuts, acc)
	}
	return c, vars, clauseOuts, nil
}

// MaxDIMACSVars caps the variable count a DIMACS problem line may
// declare. Its consumers allocate per declared variable (one signal per
// variable in FromCNF, one assignment slot in the SAT baselines), so an
// unchecked count such as 99999999999 would exhaust memory instead of
// being refused. 2^20 variables is far beyond any SOLC this simulator can
// integrate.
const MaxDIMACSVars = 1 << 20

// ParseDIMACS reads a DIMACS CNF file. Malformed input is an error: a
// problem line that is missing, repeated, declares a variable count
// outside [0, MaxDIMACSVars] or a clause count that is not a non-negative
// integer; a literal that is not an integer or names a variable above the
// declared count; and a file whose clauses do not number the declared
// count.
func ParseDIMACS(r io.Reader) (CNF, error) {
	var f CNF
	numClauses := 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	sawHeader := false
	var cur Clause
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "c") {
			continue
		}
		if strings.HasPrefix(line, "p") {
			if sawHeader {
				return f, fmt.Errorf("boolcirc: second problem line %q", line)
			}
			fields := strings.Fields(line)
			if len(fields) != 4 || fields[1] != "cnf" {
				return f, fmt.Errorf("boolcirc: malformed problem line %q", line)
			}
			nv, err := strconv.Atoi(fields[2])
			if err != nil {
				return f, fmt.Errorf("boolcirc: bad variable count: %v", err)
			}
			if nv < 0 || nv > MaxDIMACSVars {
				return f, fmt.Errorf("boolcirc: variable count %d outside [0, %d]", nv, MaxDIMACSVars)
			}
			nc, err := strconv.Atoi(fields[3])
			if err != nil {
				return f, fmt.Errorf("boolcirc: bad clause count: %v", err)
			}
			if nc < 0 {
				return f, fmt.Errorf("boolcirc: negative clause count %d", nc)
			}
			f.NumVars = nv
			numClauses = nc
			sawHeader = true
			continue
		}
		if !sawHeader {
			return f, fmt.Errorf("boolcirc: clause before problem line")
		}
		for _, tok := range strings.Fields(line) {
			v, err := strconv.Atoi(tok)
			if err != nil {
				return f, fmt.Errorf("boolcirc: bad literal %q: %v", tok, err)
			}
			if v == 0 {
				f.Clauses = append(f.Clauses, cur)
				cur = nil
				continue
			}
			if v < -f.NumVars || v > f.NumVars {
				return f, fmt.Errorf("boolcirc: literal %d names a variable above the declared count %d", v, f.NumVars)
			}
			cur = append(cur, Lit(v))
		}
	}
	if err := sc.Err(); err != nil {
		return f, err
	}
	if len(cur) != 0 {
		f.Clauses = append(f.Clauses, cur)
	}
	if !sawHeader {
		return f, fmt.Errorf("boolcirc: no problem line")
	}
	if len(f.Clauses) != numClauses {
		return f, fmt.Errorf("boolcirc: %d clauses, but the problem line declares %d", len(f.Clauses), numClauses)
	}
	return f, nil
}
