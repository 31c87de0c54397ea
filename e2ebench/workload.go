package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/boolcirc"
	"repro/internal/classical"
	"repro/internal/core"
	"repro/internal/sat"
)

// kind names what the correct outcome of an instance is.
type kind int

const (
	// kindFactor is a satisfiable product: correct is a verified factor pair.
	kindFactor kind = iota
	// kindSAT is a satisfiable formula: correct is a satisfying assignment.
	kindSAT
	// kindPrime is a prime product (the Fig. 13 negative control): correct
	// is no claim when the fixed horizon runs out.
	kindPrime
)

// instance is one problem of a suite plus the restart seed it is solved
// under (solc.Options.Seed: attempt k starts from seed+k).
type instance struct {
	kind kind
	n    uint64       // factor and prime: the product pinned on the multiplier
	cnf  boolcirc.CNF // sat: the formula
	seed int64
}

func (in instance) String() string {
	switch in.kind {
	case kindFactor:
		return fmt.Sprintf("factor n=%d restart-seed=%d", in.n, in.seed)
	case kindPrime:
		return fmt.Sprintf("prime n=%d bits=%d restart-seed=%d", in.n, core.BitLen(in.n), in.seed)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "sat vars=%d restart-seed=%d clauses=", in.cnf.NumVars, in.seed)
	for i, cl := range in.cnf.Clauses {
		if i > 0 {
			sb.WriteByte(',')
		}
		for j, l := range cl {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%d", l)
		}
	}
	return sb.String()
}

// workload is a seeded suite and the solve settings all its instances
// share. Every solve runs the sparse IMEX stepper with h = 1e-3 at
// Parallelism 1 under the WinnerLowestAttempt policy, so its steps,
// attempts and outcome are exact; tEnd and attempts are the per-attempt
// horizon and the restart budget.
type workload struct {
	name      string
	tEnd      float64
	attempts  int
	instances []instance
}

// Suite sizes. A factor or sat solve stops at its first verified
// equilibrium, and its cost is a restart count times the horizon plus a
// heavy-tailed convergence time, so one instance varies by about its own
// mean from seed to seed. The suites are large enough that a pass sums
// that luck over a few hundred trajectories.
const (
	factorSize = 160
	satSize    = 200
)

// factorProduct is the semiprime of the factor workload: Fig. 12's
// 15 = 3·5 on the 3×2-bit array multiplier, the 4-bit product whose
// attempts converge within the restart horizon most often (about half).
// Wider products are left out: 21 and 22 converge within it on about a
// quarter of their attempts and 35 and 33 almost never, so their passes
// are dominated by restarts.
const factorProduct = 15

// Random 3-SAT shape of the sat workload: three distinct variables per
// clause, clause/variable ratio 2.6, below the satisfiability threshold
// so most draws are satisfiable. A draw is kept when at least
// satMinSolutions of its 2^5 assignments satisfy it: formulas with one to
// five solutions took 1.3–8× longer per solve than the rest, and one of
// them could hold a third of a pass, so a suite's time was set by how
// many it drew.
const (
	satVars         = 5
	satClauses      = 13
	satMinSolutions = 6
)

// primeBits are the product widths of the horizon workload: the 8- to
// 11-bit multipliers (124 to 238 gates), the largest circuits the
// benchmark compiles.
var primeBits = []int{8, 9, 10, 11}

// workloadNames lists the workloads in the order the benchmark documents
// them.
var workloadNames = []string{"factor", "sat", "horizon"}

// newWorkload generates the named suite from seed alone. scale divides the
// suite sizes (1 for the benchmark; the self-tests use tiny suites).
//
// factor and sat restart every 4 time units, up to 32 times, instead of
// the cmds' 150 × 4: a trajectory that has not converged by t = 4 rarely
// does by t = 40, so the long horizon spends 150k steps on each miss and
// a pass's wall is set by how many of its instances miss once. With the
// short horizon a miss costs about what a hit does, and no instance of
// the suites has been seen to exhaust 32 attempts.
func newWorkload(name string, seed int64, scale int) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "factor":
		w := &workload{name: name, tEnd: 4, attempts: 32}
		for len(w.instances) < factorSize/scale {
			w.instances = append(w.instances, instance{kind: kindFactor, n: factorProduct, seed: rng.Int63()})
		}
		return w, checkSatisfiable(factorProduct)
	case "sat":
		w := &workload{name: name, tEnd: 4, attempts: 32}
		for len(w.instances) < satSize/scale {
			f := random3SAT(rng, satVars, satClauses)
			if countSolutions(f) < satMinSolutions {
				continue
			}
			w.instances = append(w.instances, instance{kind: kindSAT, cnf: f, seed: rng.Int63()})
		}
		return w, nil
	case "horizon":
		w := &workload{name: name, tEnd: 2, attempts: 1}
		for _, bits := range primeBits {
			w.instances = append(w.instances, instance{kind: kindPrime, n: randomPrime(rng, bits), seed: rng.Int63()})
		}
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// checkSatisfiable confirms with CDCL that n has a factor pair within the
// multiplier words, so an unsolved instance is a miss of the solver and
// not of the generator.
func checkSatisfiable(n uint64) error {
	bc, _, _, pins := core.BuildCircuit(n, core.BitLen(n))
	if sat.CDCL(bc.ToCNF(pins), 0).Status != sat.Satisfiable {
		return fmt.Errorf("factor product %d has no factor pair within the multiplier words", n)
	}
	return nil
}

// random3SAT draws a formula of nc clauses over nv variables, each clause
// three distinct variables with random signs.
func random3SAT(rng *rand.Rand, nv, nc int) boolcirc.CNF {
	f := boolcirc.CNF{NumVars: nv}
	for c := 0; c < nc; c++ {
		cl := make(boolcirc.Clause, 0, 3)
		for _, v := range rng.Perm(nv)[:3] {
			l := boolcirc.Lit(v + 1)
			if rng.Intn(2) == 0 {
				l = -l
			}
			cl = append(cl, l)
		}
		f.Clauses = append(f.Clauses, cl)
	}
	return f
}

// countSolutions counts the satisfying assignments of f by enumeration.
func countSolutions(f boolcirc.CNF) int {
	n := 0
	assign := make([]bool, f.NumVars)
	for bits := 0; bits < 1<<uint(f.NumVars); bits++ {
		for v := range assign {
			assign[v] = bits&(1<<uint(v)) != 0
		}
		if f.Satisfied(assign) {
			n++
		}
	}
	return n
}

// randomPrime draws a prime with exactly the given number of bits.
func randomPrime(rng *rand.Rand, bits int) uint64 {
	lo := uint64(1) << uint(bits-1)
	for {
		n := lo + uint64(rng.Int63n(int64(lo)))
		if classical.IsPrime(n) {
			return n
		}
	}
}
