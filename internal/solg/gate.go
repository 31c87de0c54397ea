// Package solg implements self-organizing logic gates (Sec. V of the
// paper): terminal-agnostic gates whose every terminal carries a dynamic
// correction module (DCM) of memristor clamp branches plus one resistor
// branch, each terminated by a voltage-controlled voltage generator. A gate
// configuration satisfying the boolean relation draws no net current from
// any terminal and is a stable equilibrium; any other configuration drives
// at least one memristor to Ron and injects a corrective current of order
// vc/Ron (Fig. 4).
//
// The VCVG parameter sets play the role of the paper's Table I. The
// memristor-branch levels are the linear clamps encoding the gate's logic
// implications, and the resistor-branch level is solved at construction
// time from the requirement of zero net terminal current at every correct
// configuration (see DESIGN.md, "Table I re-derivation").
package solg

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/la"
)

// Kind enumerates the supported self-organizing gate types.
type Kind int

// Gate kinds. AND, OR and XOR form the paper's universal set (Sec. V-C);
// the negated forms and NOT are provided for circuit-synthesis convenience.
const (
	AND Kind = iota
	OR
	XOR
	NAND
	NOR
	XNOR
	NOT
)

// String returns the conventional gate name.
func (k Kind) String() string {
	switch k {
	case AND:
		return "AND"
	case OR:
		return "OR"
	case XOR:
		return "XOR"
	case NAND:
		return "NAND"
	case NOR:
		return "NOR"
	case XNOR:
		return "XNOR"
	case NOT:
		return "NOT"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Terminals returns the number of terminals (inputs plus output).
func (k Kind) Terminals() int {
	if k == NOT {
		return 2
	}
	return 3
}

// Eval computes the boolean function of the gate. For NOT, only in[0] is
// used.
func (k Kind) Eval(in ...bool) bool {
	switch k {
	case AND:
		return in[0] && in[1]
	case OR:
		return in[0] || in[1]
	case XOR:
		return in[0] != in[1]
	case NAND:
		return !(in[0] && in[1])
	case NOR:
		return !(in[0] || in[1])
	case XNOR:
		return in[0] == in[1]
	case NOT:
		return !in[0]
	}
	panic("solg: unknown gate kind")
}

// Branch is one DCM branch: a memristor (or resistor) in series with a
// VCVG at level L. The memristor's device voltage is Sigma·(v_t − L(v)),
// so Sigma selects whether the branch clamps its terminal from above
// (Sigma = +1: conducts strongly when v_t > L) or from below (Sigma = -1).
type Branch struct {
	L     device.VCVG
	Sigma float64
	// Mem is true for memristor branches, false for the single resistor
	// branch (whose conductance is fixed at 1/Roff).
	Mem bool
}

// DCM is the dynamic correction module attached to one gate terminal.
type DCM struct {
	Branches []Branch
}

// Gate is a self-organizing logic gate: one DCM per terminal.
type Gate struct {
	Kind Kind
	// DCMs[t] is the correction module of terminal t; terminals are
	// ordered (input1, input2, output) — (input, output) for NOT.
	DCMs []DCM
}

// clampSpec describes one memristor clamp branch as VCVG coefficients
// (a1, a2, ao, dc·vc) plus orientation.
type clampSpec struct {
	a1, a2, ao, dc float64
	sigma          float64
}

// clamps returns the memristor clamp set for terminal t of gate kind k,
// in units of vc = 1. See DESIGN.md for the derivation.
func clamps(k Kind, t int) []clampSpec {
	const up, down = +1, -1
	switch k {
	case AND:
		switch t {
		case 0: // v2=1 ⇒ v1=vo ; vo=1 ⇒ v1=1
			return []clampSpec{
				{0, -1, 1, 1, up},   // v1 ≤ vo - v2 + 1
				{0, 1, 1, -1, down}, // v1 ≥ vo + v2 - 1
				{0, 0, 1, 0, down},  // v1 ≥ vo
			}
		case 1:
			return []clampSpec{
				{-1, 0, 1, 1, up},
				{1, 0, 1, -1, down},
				{0, 0, 1, 0, down},
			}
		case 2: // vo = min(v1, v2)
			return []clampSpec{
				{1, 0, 0, 0, up},    // vo ≤ v1
				{0, 1, 0, 0, up},    // vo ≤ v2
				{1, 1, 0, -1, down}, // vo ≥ v1 + v2 - 1
			}
		}
	case OR:
		switch t {
		case 0: // v2=0 ⇒ v1=vo ; vo=0 ⇒ v1=0
			return []clampSpec{
				{0, 1, 1, 1, up},     // v1 ≤ vo + v2 + 1
				{0, -1, 1, -1, down}, // v1 ≥ vo - v2 - 1
				{0, 0, 1, 0, up},     // v1 ≤ vo
			}
		case 1:
			return []clampSpec{
				{1, 0, 1, 1, up},
				{-1, 0, 1, -1, down},
				{0, 0, 1, 0, up},
			}
		case 2: // vo = max(v1, v2)
			return []clampSpec{
				{1, 0, 0, 0, down}, // vo ≥ v1
				{0, 1, 0, 0, down}, // vo ≥ v2
				{1, 1, 0, 1, up},   // vo ≤ v1 + v2 + 1
			}
		}
	case XOR:
		// All three terminals see the XOR of the other two; the clamp set
		// is the linear envelope of vt = -(va·vb) over the other terminals
		// a, b.
		var a, b int
		switch t {
		case 0:
			a, b = 1, 2
		case 1:
			a, b = 0, 2
		case 2:
			a, b = 0, 1
		}
		mk := func(ca, cb, dc, sigma float64) clampSpec {
			s := clampSpec{dc: dc, sigma: sigma}
			set := func(term int, v float64) {
				switch term {
				case 0:
					s.a1 = v
				case 1:
					s.a2 = v
				case 2:
					s.ao = v
				}
			}
			set(a, ca)
			set(b, cb)
			return s
		}
		return []clampSpec{
			mk(-1, -1, 1, up),   // vt ≤ -va - vb + 1
			mk(1, 1, 1, up),     // vt ≤ va + vb + 1
			mk(-1, 1, -1, down), // vt ≥ -va + vb - 1
			mk(1, -1, -1, down), // vt ≥ va - vb - 1
		}
	case NAND:
		switch t {
		case 0: // v2=1 ⇒ v1=¬vo ; vo=0 ⇒ v1=1
			return []clampSpec{
				{0, -1, -1, 1, up},   // v1 ≤ -vo - v2 + 1
				{0, 1, -1, -1, down}, // v1 ≥ -vo + v2 - 1
				{0, 0, -1, 0, down},  // v1 ≥ -vo
			}
		case 1:
			return []clampSpec{
				{-1, 0, -1, 1, up},
				{1, 0, -1, -1, down},
				{0, 0, -1, 0, down},
			}
		case 2: // vo = max(-v1, -v2)
			return []clampSpec{
				{-1, 0, 0, 0, down}, // vo ≥ -v1
				{0, -1, 0, 0, down}, // vo ≥ -v2
				{-1, -1, 0, 1, up},  // vo ≤ -v1 - v2 + 1
			}
		}
	case NOR:
		switch t {
		case 0: // v2=0 ⇒ v1=¬vo ; vo=1 ⇒ v1=0
			return []clampSpec{
				{0, 1, -1, 1, up},     // v1 ≤ -vo + v2 + 1
				{0, -1, -1, -1, down}, // v1 ≥ -vo - v2 - 1
				{0, 0, -1, 0, up},     // v1 ≤ -vo
			}
		case 1:
			return []clampSpec{
				{1, 0, -1, 1, up},
				{-1, 0, -1, -1, down},
				{0, 0, -1, 0, up},
			}
		case 2: // vo = min(-v1, -v2)
			return []clampSpec{
				{-1, 0, 0, 0, up},     // vo ≤ -v1
				{0, -1, 0, 0, up},     // vo ≤ -v2
				{-1, -1, 0, -1, down}, // vo ≥ -v1 - v2 - 1
			}
		}
	case XNOR:
		// vt = va·vb over the other two terminals.
		var a, b int
		switch t {
		case 0:
			a, b = 1, 2
		case 1:
			a, b = 0, 2
		case 2:
			a, b = 0, 1
		}
		mk := func(ca, cb, dc, sigma float64) clampSpec {
			s := clampSpec{dc: dc, sigma: sigma}
			set := func(term int, v float64) {
				switch term {
				case 0:
					s.a1 = v
				case 1:
					s.a2 = v
				case 2:
					s.ao = v
				}
			}
			set(a, ca)
			set(b, cb)
			return s
		}
		return []clampSpec{
			mk(1, -1, 1, up),     // vt ≤ va - vb + 1
			mk(-1, 1, 1, up),     // vt ≤ -va + vb + 1
			mk(1, 1, -1, down),   // vt ≥ va + vb - 1
			mk(-1, -1, -1, down), // vt ≥ -va - vb - 1
		}
	case NOT:
		// Two terminals (v1, vo), each the negation of the other. The
		// "v2" coefficient is unused.
		switch t {
		case 0:
			return []clampSpec{
				{0, 0, -1, 0, up},
				{0, 0, -1, 0, down},
			}
		case 2: // output terminal index stays 2 for layout uniformity
			return []clampSpec{
				{-1, 0, 0, 0, up},
				{-1, 0, 0, 0, down},
			}
		}
	}
	panic(fmt.Sprintf("solg: no clamp set for %v terminal %d", k, t))
}

// correctConfigs enumerates the gate's satisfying voltage configurations
// (v1, v2, vo) in units of vc. For NOT the v2 slot is fixed at -1 (unused).
func correctConfigs(k Kind) [][3]float64 {
	var out [][3]float64
	if k == NOT {
		for _, b1 := range []bool{false, true} {
			v := [3]float64{logicV(b1), -1, logicV(k.Eval(b1))}
			out = append(out, v)
		}
		return out
	}
	for _, b1 := range []bool{false, true} {
		for _, b2 := range []bool{false, true} {
			out = append(out, [3]float64{logicV(b1), logicV(b2), logicV(k.Eval(b1, b2))})
		}
	}
	return out
}

func logicV(b bool) float64 {
	if b {
		return 1
	}
	return -1
}

// terminalIndex maps logical terminal number (0, 1, ..., output last) to
// the (v1, v2, vo) slot index. For 3-terminal gates it is the identity;
// for NOT, terminal 1 (the output) maps to slot 2.
func terminalIndex(k Kind, t int) int {
	if k == NOT && t == 1 {
		return 2
	}
	return t
}

// New constructs a self-organizing gate of the given kind with all DCM
// parameters populated: clamp branches from the logic design and the
// resistor branch solved for zero net current at every correct
// configuration. vc is the logic reference voltage.
//
// vc enters a gate only as the factor on each VCVG's DC term, so New
// scales a copy of the kind's gate at vc = 1, derived once at start-up;
// since x·1 = x exactly, the copy has the bits derive(k, vc) gives.
func New(k Kind, vc float64) (*Gate, error) {
	if k < AND || k > NOT {
		return derive(k, vc)
	}
	u := unitGates[k]
	if u.err != nil {
		return nil, u.err
	}
	g := &Gate{Kind: k, DCMs: make([]DCM, len(u.gate.DCMs))}
	for t, dcm := range u.gate.DCMs {
		brs := append([]Branch(nil), dcm.Branches...)
		for b := range brs {
			brs[b].L.DC *= vc
		}
		g.DCMs[t].Branches = brs
	}
	return g, nil
}

// unitGates holds each gate kind derived at vc = 1, with its error.
var unitGates = func() (t [NOT + 1]struct {
	gate *Gate
	err  error
}) {
	for k := range t {
		t[k].gate, t[k].err = derive(Kind(k), 1)
	}
	return t
}()

// derive builds the gate of kind k at vc: the clamp branches of the logic
// design plus the resistor branch from the least-squares solve.
func derive(k Kind, vc float64) (*Gate, error) {
	g := &Gate{Kind: k}
	cfgs := correctConfigs(k)
	for t := 0; t < k.Terminals(); t++ {
		slot := terminalIndex(k, t)
		specs := clamps(k, slot)
		dcm := DCM{}
		for _, s := range specs {
			dcm.Branches = append(dcm.Branches, Branch{
				L:     device.VCVG{A1: s.a1, A2: s.a2, Ao: s.ao, DC: s.dc * vc},
				Sigma: s.sigma,
				Mem:   true,
			})
		}
		lr, err := solveResistorVCVG(specs, slot, cfgs, vc)
		if err != nil {
			return nil, fmt.Errorf("solg: %v terminal %d: %w", k, t, err)
		}
		dcm.Branches = append(dcm.Branches, Branch{L: lr, Sigma: +1, Mem: false})
		g.DCMs = append(g.DCMs, dcm)
	}
	return g, nil
}

// MustNew is New but panics on error; the built-in gate kinds never fail.
func MustNew(k Kind, vc float64) *Gate {
	g, err := New(k, vc)
	if err != nil {
		panic(err)
	}
	return g
}

// solveResistorVCVG solves for the resistor-branch VCVG level L_R such that
// the net terminal current vanishes at every correct configuration, given
// that every weak memristor branch sits at x = 1 (conductance 1/Roff) and
// the resistor equals Roff (Fig. 6 caption), so all branch currents are
// d/Roff and Roff cancels:
//
//	Σ_k (v_t − L_k) + (v_t − L_R) = 0  for every correct config.
func solveResistorVCVG(specs []clampSpec, slot int, cfgs [][3]float64, vc float64) (device.VCVG, error) {
	n := len(cfgs)
	a := la.NewDense(n, 4)
	b := la.NewVector(n)
	for i, c := range cfgs {
		vt := c[slot]
		sumM := 0.0
		for _, s := range specs {
			l := float64(s.a1*c[0]) + float64(s.a2*c[1]) + float64(s.ao*c[2]) + s.dc
			d := vt - l
			if s.sigma*d > 1e-9 {
				return device.VCVG{}, fmt.Errorf("clamp violated at correct config %v (d=%v σ=%v)", c, d, s.sigma)
			}
			sumM += d
		}
		// L_R(c) = vt + Σ d_k.
		a.Set(i, 0, c[0])
		a.Set(i, 1, c[1])
		a.Set(i, 2, c[2])
		a.Set(i, 3, 1)
		b[i] = vt + sumM
	}
	coef, err := solveLeastSquares(a, b)
	if err != nil {
		return device.VCVG{}, err
	}
	// Verify the residual: the system must be exactly solvable.
	chk := la.NewVector(n)
	a.MulVec(chk, coef)
	chk.Sub(b)
	if chk.NormInf() > 1e-9 {
		return device.VCVG{}, fmt.Errorf("resistor VCVG unsolvable (residual %v)", chk.NormInf())
	}
	return device.VCVG{A1: coef[0] * 1, A2: coef[1], Ao: coef[2], DC: coef[3] * vc}, nil
}

// solveLeastSquares solves min ‖Ax − b‖₂ via the normal equations with a
// tiny Tikhonov term to tolerate rank deficiency (NOT has only two
// configurations).
func solveLeastSquares(a *la.Dense, b la.Vector) (la.Vector, error) {
	n := a.Cols
	ata := la.NewDense(n, n)
	atb := la.NewVector(n)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < n; j++ {
			aij := a.At(i, j)
			if aij == 0 {
				continue
			}
			atb[j] += float64(aij * b[i])
			for k := 0; k < n; k++ {
				ata.Addf(j, k, aij*a.At(i, k))
			}
		}
	}
	for j := 0; j < n; j++ {
		ata.Addf(j, j, 1e-12)
	}
	return la.SolveDense(ata, atb)
}
