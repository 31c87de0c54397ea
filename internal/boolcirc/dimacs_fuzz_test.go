package boolcirc_test

import (
	"strings"
	"testing"

	"repro/internal/boolcirc"
	"repro/internal/sat"
)

// FuzzParseDIMACS holds the parser to its contract that malformed input
// is an error, never a later panic: whatever it accepts must run through
// the DPLL baseline (whose satisfying assignments must check out against
// the formula) and FromCNF without panicking.
func FuzzParseDIMACS(f *testing.F) {
	for _, seed := range []string{
		"c example\np cnf 3 2\n1 -2 0\n2 3 0\n",
		"p cnf 2 1\n1 -3 0\n",
		"p cnf -1 1\n1 0\n",
		"p cnf 99999999999 1\n1 0\n",
		"p cnf 1048576 1\n-1048576 0\n",
		"p cnf 3 2\n1 2\n-3 0\n0\n",
		"p cnf 1 1\np cnf 3 1\n3 0\n",
		"p cnf 3 x\n1 0\n",
		"p cnf 3 -5\n1 0\n",
		"p cnf 3 2\n1 0\n",
		"p cnf 3 1\n1 0\n2 0\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		cnf, err := boolcirc.ParseDIMACS(strings.NewReader(in))
		if err != nil {
			return
		}
		// A decision bound keeps every input fast; Unknown is an answer.
		if res := sat.DPLL(cnf, 1000); res.Status == sat.Satisfiable && !cnf.Satisfied(res.Assignment) {
			t.Fatalf("DPLL assignment %v does not satisfy %+v", res.Assignment, cnf)
		}
		if _, _, _, err := boolcirc.FromCNF(cnf); err != nil && !strings.Contains(err.Error(), "empty clause") {
			t.Fatalf("FromCNF rejects parsed input: %v", err)
		}
	})
}
