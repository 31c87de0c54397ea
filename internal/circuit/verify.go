package circuit

import (
	"repro/internal/device"
	"repro/internal/invariant"
	"repro/internal/la"
)

// Runtime invariant envelopes, in the units the admissibility argument
// fixes them (see DESIGN.md "Runtime invariants"):
//
//   - VBoundFactor·Vc bounds every node voltage. Equilibria sit exactly at
//     |v| = vc (Thm. VI.10), but this is a blow-up detector, not a physics
//     envelope: during VCDCG exploration kicks the DCMs' negative
//     differential conductance lets nodes legitimately swing to ~5e4·vc
//     and recover (measured across factorization instances 33–49, three
//     seeds each, on the production IMEX settings). The factor leaves
//     ~20× headroom above the worst measured excursion, so a trip means
//     the integration diverged, never an ordinary transient.
//   - device.IBoundFactor·IMax bounds each finite VCDCG current — the
//     exact window device.VCDCG.Advance clamps every new current to
//     (Prop. VI.5 plus one step of overshoot, already absorbed into the
//     factor).
//   - Memristor states are exactly [0,1]: memristor.Model.Update returns
//     no other finite value (Prop. VI.2).
const VBoundFactor = 1e6

// nodeOfFree maps a free-voltage state index back to its circuit node.
func (c *Circuit) nodeOfFree(fi int) int { return c.freeNode[fi] }

// VerifyState checks the runtime invariants on a stepped state of the
// capacitive form: every free-node voltage inside ±VBoundFactor·Vc,
// every memristor state in [0,1], every VCDCG current inside
// ±device.IBoundFactor·IMax, and the bistable block finite. It returns the
// first *invariant.Violation found (with Index remapped to the circuit
// node number for voltage bounds), or nil.
func (c *Circuit) VerifyState(t float64, step int, x la.Vector) error {
	vb := VBoundFactor * c.Params.Vc
	if v := invariant.Range("voltage-bound", "free-node", step, t,
		x[c.vOff():c.vOff()+c.nv], -vb, vb); v != nil {
		v.Index = c.nodeOfFree(v.Index)
		return v
	}
	return c.verifySlow(t, step, x)
}

// verifySlow checks the slow-state blocks: memristor states, VCDCG
// currents and bistables.
func (c *Circuit) verifySlow(t float64, step int, x la.Vector) error {
	xOff, iOff, sOff := c.xOff(), c.iOff(), c.sOff()
	if v := invariant.Range("mem-state", "memristor", step, t,
		x[xOff:xOff+c.nm], 0, 1); v != nil {
		return v
	}
	ib := device.IBoundFactor * c.Params.DCG.IMax
	if v := invariant.Range("current-bound", "vcdcg-current", step, t,
		x[iOff:iOff+c.nd], -ib, ib); v != nil {
		return v
	}
	if v := invariant.Finite("vcdcg-bistable", step, t, x[sOff:sOff+c.nd]); v != nil {
		return v
	}
	return nil
}
