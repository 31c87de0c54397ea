package circuit

import (
	"repro/internal/la"
	"repro/internal/obs"
)

// voltageFactor is one IMEX stepper's numeric factorization of the
// shifted voltage system shift·I + A(g) over the circuit's shared
// symbolic analysis, refreshed through refactor on every step at that
// step's C/h shift.
type voltageFactor struct {
	csr *la.CSR      // private values over the shared pattern
	slu *la.SparseLU // private numerics over the shared symbolic analysis
}

// bind allocates the private value array and numeric factor over the
// circuit's shared pattern and symbolic analysis.
//
//dmmvet:coldpath — runs once per engine instance, on its first factorization; every later refactor reuses the storage
func (f *voltageFactor) bind(c *Circuit) error {
	f.csr = c.plan.valCSR()
	slu, err := c.symb.CloneFor(f.csr)
	if err != nil {
		return err
	}
	f.slu = slu
	return nil
}

// refactor assembles shift·I + A(g) through the stamp plan and factors
// it. The assembly self-times into PhaseStamp, the numeric
// refactorization into PhaseFactor through the solver's own hook. spans
// is rebound on every call (the shared template c.symb keeps a nil
// hook), so a stepper reused for another attempt self-times into the
// profiler that attempt carries.
func (f *voltageFactor) refactor(c *Circuit, spans *obs.Spans, shift float64, g la.Vector) error {
	if f.slu == nil {
		if err := f.bind(c); err != nil {
			return err
		}
	}
	f.slu.Spans = spans
	tok := spans.Begin()
	c.plan.assemble(f.csr.Val, shift, g)
	spans.End(obs.PhaseStamp, tok)
	return f.slu.Refactor()
}
