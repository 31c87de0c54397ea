package core

import (
	"fmt"

	"repro/internal/boolcirc"
)

// SubsetSum builds and runs the subset-sum SOLC of Sec. VII-B (Fig. 14):
// selector bits c_j gate the constant words q_j into an accumulation
// network whose sum word is pinned to the target s, and the circuit
// self-organizes into a satisfying selection.
type SubsetSum struct {
	cfg Config
}

// NewSubsetSum returns a solver with the given configuration.
func NewSubsetSum(cfg Config) *SubsetSum {
	if cfg.TEnd == 0 {
		cfg = DefaultConfig()
	}
	return &SubsetSum{cfg: cfg}
}

// SubsetSumResult is the outcome of a subset-sum run.
type SubsetSumResult struct {
	Values []uint64
	Target uint64
	// Solved reports whether a verified selection was found; Mask has bit
	// j set when values[j] is selected.
	Solved  bool
	Mask    uint64
	Reason  string
	Metrics Metrics
	Trace   interface{ Len() int }
}

// BuildSubsetSumCircuit constructs the Fig. 14 network for the instance:
// the masked accumulation circuit plus the pin map imposing the target on
// the sum word (padded with zeros to the full width, Sec. VII-B). A
// non-nil unreachable explains why no subset can reach the target
// without integrating: a bit above the sum word, or two bits of the word
// that are one signal (every set bit of a single value is its selector)
// asked for different values. The pin map then keeps each signal's first
// pin and must not be solved.
func BuildSubsetSumCircuit(values []uint64, precision int, target uint64) (bc *boolcirc.Circuit, selectors []boolcirc.Signal, pins map[boolcirc.Signal]bool, unreachable error) {
	bc = boolcirc.New()
	selectors, sum := bc.SubsetSumNetwork(values, precision)
	// The sum word holds the total of all values; pinning only its bits
	// would silently drop a target's higher bits and solve for the
	// truncated target instead.
	if target>>uint(len(sum)) != 0 {
		unreachable = fmt.Errorf("target %d exceeds the %d-bit sum word: no subset can reach it", target, len(sum))
	}
	pins = make(map[boolcirc.Signal]bool, len(sum))
	bitOf := make(map[boolcirc.Signal]int, len(sum))
	for i, s := range sum {
		v := target&(1<<uint(i)) != 0
		j, seen := bitOf[s]
		if !seen {
			bitOf[s], pins[s] = i, v
		} else if pins[s] != v && unreachable == nil {
			unreachable = fmt.Errorf("target %d needs sum bits %d and %d to differ, but they are one signal: no subset can reach it", target, j, i)
		}
	}
	return bc, selectors, pins, unreachable
}

// Precision returns the minimum bit width holding every value.
func Precision(values []uint64) int {
	p := 1
	for _, v := range values {
		if l := BitLen(v); l > p {
			p = l
		}
	}
	return p
}

// Solve runs the SOLC in solution mode on the instance (positive values,
// as in the paper; the non-empty-subset NP-hard version).
func (ss *SubsetSum) Solve(values []uint64, target uint64) (SubsetSumResult, error) {
	if len(values) == 0 {
		return SubsetSumResult{}, fmt.Errorf("core: empty subset-sum instance")
	}
	if len(values) > 63 {
		return SubsetSumResult{}, fmt.Errorf("core: at most 63 values supported")
	}
	if target == 0 {
		// The paper's NP-hard version asks for a non-empty subset; with
		// positive values no non-empty subset sums to zero.
		return SubsetSumResult{}, fmt.Errorf("core: target must be positive (non-empty subset of positive values)")
	}
	for _, v := range values {
		if v == 0 {
			return SubsetSumResult{}, fmt.Errorf("core: values must be positive")
		}
	}
	p := Precision(values)
	bc, selectors, pins, unreachable := BuildSubsetSumCircuit(values, p, target)
	out := SubsetSumResult{Values: values, Target: target}
	if unreachable != nil {
		out.Reason = unreachable.Error()
		return out, nil
	}
	cs := ss.cfg.compile(bc, pins)
	out.Metrics.fill(cs)
	res, rec, err := solve(cs, ss.cfg)
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
	var mask, sum uint64
	for j, s := range selectors {
		if res.Assignment[s] {
			mask |= 1 << uint(j)
			sum += values[j]
		}
	}
	if sum != target {
		return out, fmt.Errorf("core: verified assignment sums to %d ≠ %d", sum, target)
	}
	out.Solved = true
	out.Mask = mask
	return out, nil
}
