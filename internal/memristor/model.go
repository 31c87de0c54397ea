package memristor

import "math"

// Model holds the device parameters for the paper's memristor (Eqs. 14-18,
// 26, 31, 40). The internal state x ∈ [0,1] interpolates the resistance
// between Ron (x=0) and Roff (x=1).
type Model struct {
	Ron  float64 // minimum resistance (x = 0)
	Roff float64 // maximum resistance (x = 1)
	// Alpha is the state-equation rate constant (Eq. 22); it sets the
	// memristor switching time scale τ_M ∝ 1/α.
	Alpha float64
	// K is the boundary-window steepness k in Eq. (31). math.Inf(1)
	// selects the hard window (Table II uses k = ∞); the circuit layer
	// then relies on exact clamping of x to [0,1] (Prop. VI.2).
	K float64
	// Vt is the threshold voltage in Eq. (40); Vt ≤ 0 reduces θ̃(v/2Vt)
	// to the Heaviside step θ(v), matching Table II's Vt = 0.
	Vt float64
	// Step is the smooth step θ̃_r used inside h. Nil means hard Heaviside.
	Step *SmoothStep
}

// Default returns the Table II device: Ron = 1e-2, Roff = 1, α = 60,
// k = ∞, Vt = 0, with a C¹ smooth step available for the threshold form.
func Default() Model {
	return Model{
		Ron:   1e-2,
		Roff:  1,
		Alpha: 60,
		K:     math.Inf(1),
		Vt:    0,
		Step:  NewSmoothStep(1),
	}
}

// R1 returns Roff - Ron (the state-dependent resistance span of Eq. 26).
func (m Model) R1() float64 { return m.Roff - m.Ron }

// M returns the memristance M(x) = Ron(1-x) + Roff·x (Eq. 18).
func (m Model) M(x float64) float64 { return float64(m.Ron*(1-x)) + float64(m.Roff*x) }

// G returns the conductance g(x) = 1/(R1·x + Ron) (Eq. 26). The
// float64(...) around the product is an explicit rounding barrier: it
// keeps R1·x from fusing into the add as an FMA on arm64, so g(x) is
// bit-identical across architectures. Advance takes this value as its
// g argument.
func (m Model) G(x float64) float64 { return 1 / (float64(m.R1()*x) + m.Ron) }

// theta evaluates the voltage gate of Eq. (40): θ̃_r(v / 2Vt), reducing to
// the Heaviside θ(v) when Vt ≤ 0 or no smooth step is configured.
func (m Model) theta(v float64) float64 {
	if m.Vt <= 0 || m.Step == nil {
		if v > 0 {
			return 1
		}
		return 0
	}
	return m.Step.Eval(v / (2 * m.Vt))
}

// window returns the boundary factor 1 - e^{-k·d} where d is the distance
// from the blocking boundary; with K = ∞ it is the hard indicator d > 0.
// d = 0 short-circuits the exp: 1 - e^{-k·0} is exactly 0 in IEEE
// arithmetic, and a clamped state pinned at its blocking boundary lands
// exactly there, so the fast path is bit-identical. The exp is the
// package's host-independent port (see exp), not math.Exp.
func (m Model) window(d float64) float64 {
	if math.IsInf(m.K, 1) {
		if d > 0 {
			return 1
		}
		return 0
	}
	if d == 0 {
		return 0
	}
	return 1 - exp(-m.K*d)
}

// H evaluates the window function h(x, vM) of Eq. (31)/(40):
//
//	h = (1 - e^{-k·x})·θ̃(vM) + (1 - e^{-k(1-x)})·θ̃(-vM).
//
// For vM > 0 the state decreases toward 0, so the x-side factor blocks at
// x = 0; for vM < 0 the state increases toward 1 and the (1-x)-side factor
// blocks there. θ̃ vanishes on (-∞, 0], so at most one term is nonzero for
// any vM and the other window (an exp for finite k) need not be evaluated.
func (m Model) H(x, vM float64) float64 {
	if vM > 0 {
		return m.window(x) * m.theta(vM)
	}
	if vM < 0 {
		return m.window(1-x) * m.theta(-vM)
	}
	return 0
}

// DxDt returns the memristor state equation (Eq. 29):
//
//	dx/dt = -α · h(x, vM) · g(x) · vM ,
//
// where g(x)·vM is the current through the device (current-driven form).
func (m Model) DxDt(x, vM float64) float64 {
	return -m.Alpha * m.H(x, vM) * m.G(x) * vM
}

// Advance is the explicit memristor update of one IMEX step: for every
// device j it replaces x[j] by
//
//	Clamp(x' + h·DxDt(x', σ_j·d_j)),  x' = Clamp(x[j]),
//
// where g[j] must be the conductance G(x') — the value the stepper
// already holds from its conductance fill, so the kernel does not divide
// again. The model constants are hoisted once per call and the call tree
// of Clamp/DxDt/H/window/theta is flattened, so the per-device loop pays
// no call frames; TestAdvanceBitIdentical pins it bitwise to the
// Clamp/DxDt composition. Dropping the θ̃ factor where it is exactly 1 —
// the hard-threshold branches, and |vM| ≥ 2Vt, where the quotient is ≥ 1
// — is exact: w·1 ≡ w in IEEE arithmetic for every w including ±0 and
// NaN. The saturation test is spelled !(av >= sat) so a NaN drop still
// takes the Eval path, and sat is NaN when 2Vt overflows to +Inf, where
// |vM| = +Inf would otherwise skip the NaN that Inf/Inf feeds to Eval.
// The float64(...) barrier pins the FMA-fusable product to two roundings
// on every architecture (bit-neutral where the compiler was not fusing
// anyway).
//
//dmmvet:hotpath
func (m Model) Advance(h float64, x, sigma, d, g []float64) {
	hardK := math.IsInf(m.K, 1)
	hardT := m.Vt <= 0 || m.Step == nil
	nk := -m.K
	na := -m.Alpha
	vt2 := 2 * m.Vt
	sat := vt2
	if math.IsInf(vt2, 1) {
		sat = math.NaN()
	}
	step := m.Step
	sigma, d, g = sigma[:len(x)], d[:len(x)], g[:len(x)]
	for j, xi := range x {
		if xi < 0 {
			xi = 0
		} else if xi > 1 {
			xi = 1
		}
		vM := sigma[j] * d[j]
		// h(x, vM) of Eq. (31)/(40), flattened: pick the blocking side,
		// then its window and (for soft thresholds) the θ̃ gate.
		var hv float64
		if vM != 0 {
			dist := xi // distance from the blocking boundary
			if vM < 0 {
				dist = 1 - xi
			}
			if hardK {
				if dist > 0 {
					hv = 1
				}
			} else if dist != 0 {
				hv = 1 - exp(nk*dist)
			}
			if !hardT {
				av := vM
				if av < 0 {
					av = -av
				}
				if !(av >= sat) {
					hv *= step.Eval(av / vt2)
				}
			}
		}
		xn := xi + float64(h*(na*hv*g[j]*vM))
		if xn < 0 {
			xn = 0
		} else if xn > 1 {
			xn = 1
		}
		x[j] = xn
	}
}

// Clamp returns x restricted to the invariant interval [0,1].
func Clamp(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
