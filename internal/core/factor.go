package core

import (
	"fmt"

	"repro/internal/boolcirc"
	"repro/internal/solc"
)

// Factorizer builds and runs the prime-factorization SOLC of Sec. VII-A:
// an np×nq array multiplier run in reverse, with the product bits pinned
// to n by the control unit's DC generators (Fig. 11).
type Factorizer struct {
	cfg Config
}

// NewFactorizer returns a factorizer with the given configuration.
func NewFactorizer(cfg Config) *Factorizer {
	if cfg.TEnd == 0 {
		cfg = DefaultConfig()
	}
	return &Factorizer{cfg: cfg}
}

// FactorResult is the outcome of a factorization run.
type FactorResult struct {
	// N is the input; P, Q the recovered factors (P·Q = N when Solved).
	N, P, Q uint64
	// Solved is false when no equilibrium was reached — the expected
	// outcome for prime N (Fig. 13) or when the circuit is too small.
	Solved bool
	// Reason describes the last attempt's stop cause.
	Reason  string
	Metrics Metrics
	// Trace holds node-voltage trajectories when Config.TraceNodes > 0.
	Trace interface{ Len() int }
}

// WordSizes returns the paper's factor word widths for an nn-bit product:
// np = nn-1 and nq = ⌊nn/2⌋, the choice that excludes the trivial
// factorization n = n×1 and guarantees a unique solution pair for
// semiprimes (Sec. VII-A).
func WordSizes(nn int) (np, nq int) {
	if nn < 2 {
		nn = 2
	}
	return nn - 1, nn / 2
}

// BuildCircuit constructs the factorization boolean system for an nn-bit
// product: the multiplier circuit plus the pin map encoding n. Exposed for
// the experiment harness (gate-count scaling, CNF export).
func BuildCircuit(n uint64, nn int) (bc *boolcirc.Circuit, p, q []boolcirc.Signal, pins map[boolcirc.Signal]bool) {
	np, nq := WordSizes(nn)
	bc = boolcirc.New()
	p = bc.NewSignals(np)
	q = bc.NewSignals(nq)
	prod := bc.Multiplier(p, q)
	pins = make(map[boolcirc.Signal]bool, len(prod))
	for i, s := range prod {
		pins[s] = n&(1<<uint(i)) != 0
	}
	return bc, p, q, pins
}

// BitLen returns the number of bits of n.
func BitLen(n uint64) int {
	l := 0
	for n > 0 {
		l++
		n >>= 1
	}
	return l
}

// Factor runs the SOLC in solution mode on n. The word sizes follow
// WordSizes(bitlen(n)).
func (f *Factorizer) Factor(n uint64) (FactorResult, error) {
	if n < 4 {
		return FactorResult{}, fmt.Errorf("core: factorization needs n ≥ 4, got %d", n)
	}
	nn := BitLen(n)
	bc, p, q, pins := BuildCircuit(n, nn)
	cs := solc.Compile(bc, pins, f.cfg.Params)
	out := FactorResult{N: n}
	out.Metrics.fill(cs)
	res, rec, err := solve(cs, f.cfg)
	if err != nil {
		return out, err
	}
	out.Reason = res.Reason
	out.Metrics.fillRun(res)
	if rec != nil {
		out.Trace = rec
	}
	if !res.Solved {
		return out, nil
	}
	pv := boolcirc.WordToUint(res.Assignment, p)
	qv := boolcirc.WordToUint(res.Assignment, q)
	if pv*qv != n {
		return out, fmt.Errorf("core: verified assignment decodes to %d×%d ≠ %d", pv, qv, n)
	}
	out.Solved = true
	out.P, out.Q = pv, qv
	if out.P > out.Q {
		out.P, out.Q = out.Q, out.P
	}
	return out, nil
}
