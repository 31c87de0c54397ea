package circuit

import (
	"math"

	"repro/internal/la"
	"repro/internal/obs"
)

// voltageFactor is one engine's numeric factorization of the shifted
// voltage system shift·I + A(g) over the circuit's shared symbolic
// analysis, together with the memristor conductances it was assembled
// from. Both engines refresh it through refactor. The IMEX engine does so
// on every step, at that step's C/h shift; the quasi-static engine, whose
// g_leak shift is constant, reuses it until stale reports a conductance
// drift past its RefactorTol.
type voltageFactor struct {
	csr  *la.CSR      // private values over the shared pattern
	slu  *la.SparseLU // private numerics over the shared symbolic analysis
	gAt  la.Vector    // memristor conductances at factorization time
	have bool         // false until a factorization succeeded
}

// stale reports whether the factor must be recomputed for a solve at
// memristor conductances gNow: there is none yet, staleness is disabled
// (tol ≤ 0 refactors every time), or some conductance drifted more than
// tol (relative) since factorization.
func (f *voltageFactor) stale(gNow la.Vector, tol float64) bool {
	if !f.have || tol <= 0 {
		return true
	}
	return conductanceDrift(gNow, f.gAt, tol)
}

// conductanceDrift reports whether any entry of gNow has moved more than
// tol (relative) from the value gAt it was factorized at.
func conductanceDrift(gNow, gAt la.Vector, tol float64) bool {
	for m := range gNow {
		if math.Abs(gNow[m]-gAt[m]) > tol*gAt[m] {
			return true
		}
	}
	return false
}

// bind allocates the private value array and numeric factor over the
// circuit's shared pattern and symbolic analysis. spans self-times the
// solver's Refactor and SolveInto; it must be private to one stepping
// goroutine (the shared template c.symb keeps a nil hook).
//
//dmmvet:coldpath — runs once per engine instance, on its first factorization; every later refactor reuses the storage
func (f *voltageFactor) bind(c *Circuit, spans *obs.Spans) error {
	f.csr = c.plan.valCSR()
	slu, err := c.symb.CloneFor(f.csr)
	if err != nil {
		return err
	}
	slu.Spans = spans
	f.slu = slu
	f.gAt = la.NewVector(c.nm)
	return nil
}

// refactor assembles shift·I + A(g) through the stamp plan and factors
// it, recording the memristor conductances g[:nm]. The assembly
// self-times into PhaseStamp, the numeric refactorization into
// PhaseFactor through the solver's own hook.
func (f *voltageFactor) refactor(c *Circuit, spans *obs.Spans, shift float64, g la.Vector) error {
	if f.slu == nil {
		if err := f.bind(c, spans); err != nil {
			return err
		}
	}
	tok := spans.Begin()
	c.plan.assemble(f.csr.Val, shift, g)
	spans.End(obs.PhaseStamp, tok)
	f.have = false
	if err := f.slu.Refactor(); err != nil {
		return err
	}
	f.gAt.CopyFrom(g[:c.nm])
	f.have = true
	return nil
}
