package solc

import (
	"fmt"

	"repro/internal/boolcirc"
	"repro/internal/circuit"
)

// SATResult reports a SOLC SAT solve.
type SATResult struct {
	// Solved is true when the machine reached a verified satisfying
	// assignment; Assignment[v] is then the value of variable v+1.
	Solved     bool
	Assignment []bool
	Result     Result
}

// SolveCNF maps a CNF formula onto a self-organizing logic circuit — one
// OR tree per clause with every clause output pinned to logic 1 — and runs
// it in solution mode. This is the general-purpose face of the machine:
// the paper builds its SOLCs "by encoding directly the SAT representing
// the specific problem" (Sec. VIII). Options.Parallelism races the
// restarts.
func SolveCNF(f boolcirc.CNF, p circuit.Params, opts Options) (SATResult, error) {
	bc, vars, outs, err := boolcirc.FromCNF(f)
	if err != nil {
		return SATResult{}, fmt.Errorf("solc: %w", err)
	}
	pins := make(map[boolcirc.Signal]bool, len(outs))
	for _, o := range outs {
		pins[o] = true
	}
	res, err := Compile(bc, pins, p).Solve(opts)
	if err != nil {
		return SATResult{}, err
	}
	out := SATResult{Result: res}
	if !res.Solved {
		return out, nil
	}
	assign := make([]bool, f.NumVars)
	for v, s := range vars {
		assign[v] = res.Assignment[s]
	}
	// Independent verification against the original formula.
	if !f.Satisfied(assign) {
		return out, fmt.Errorf("solc: SOLC equilibrium does not satisfy the CNF")
	}
	out.Solved = true
	out.Assignment = assign
	return out, nil
}
