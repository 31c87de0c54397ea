package memristor

// Model holds the device parameters for the paper's memristor (Eqs. 14-18,
// 26, 31, 40). The internal state x ∈ [0,1] interpolates the resistance
// between Ron (x=0) and Roff (x=1). The window is Table II's hard one,
// k = ∞ in Eq. (31), and the threshold is Table II's Vt = 0, which reduces
// θ̃(v/2Vt) in Eq. (40) to the Heaviside step θ(v); the circuit layer
// relies on exact clamping of x to [0,1] (Prop. VI.2).
type Model struct {
	Ron  float64 // minimum resistance (x = 0)
	Roff float64 // maximum resistance (x = 1)
	// Alpha is the state-equation rate constant (Eq. 22); it sets the
	// memristor switching time scale τ_M ∝ 1/α.
	Alpha float64
}

// Default returns the Table II device: Ron = 1e-2, Roff = 1, α = 60.
func Default() Model {
	return Model{Ron: 1e-2, Roff: 1, Alpha: 60}
}

// R1 returns Roff - Ron (the state-dependent resistance span of Eq. 26).
func (m Model) R1() float64 { return m.Roff - m.Ron }

// M returns the memristance M(x) = Ron(1-x) + Roff·x (Eq. 18).
func (m Model) M(x float64) float64 { return float64(m.Ron*(1-x)) + float64(m.Roff*x) }

// G returns the conductance g(x) = 1/(R1·x + Ron) (Eq. 26). The
// float64(...) around the product is an explicit rounding barrier: it
// keeps R1·x from fusing into the add as an FMA on arm64, so g(x) is
// bit-identical across architectures. Update takes this value as its
// g argument.
func (m Model) G(x float64) float64 { return 1 / (float64(m.R1()*x) + m.Ron) }

// window returns the boundary factor of Eq. (31) at k = ∞: the indicator
// d > 0 of the distance d from the blocking boundary.
func (m Model) window(d float64) float64 {
	if d > 0 {
		return 1
	}
	return 0
}

// H evaluates the window function h(x, vM) of Eq. (31)/(40) at k = ∞ and
// Vt = 0:
//
//	h = θ(x)·θ(vM) + θ(1-x)·θ(-vM).
//
// For vM > 0 the state decreases toward 0, so the x-side factor blocks at
// x = 0; for vM < 0 the state increases toward 1 and the (1-x)-side factor
// blocks there. The Heaviside gate is 1 on the side that vM's sign picks
// and 0 on the other, so only that side's window is evaluated.
func (m Model) H(x, vM float64) float64 {
	if vM > 0 {
		return m.window(x)
	}
	if vM < 0 {
		return m.window(1 - x)
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

// Update is one device's explicit step under the polarized drop vM:
//
//	Clamp(x + h·DxDt(x, vM)),
//
// with g = G(x) supplied by the caller. x must be in [0,1] (or NaN, which
// the result keeps): the result is, so a state that only ever passes
// through Update stays there (Prop. VI.2). The call tree of
// Clamp/DxDt/H/window is flattened into one inlinable body, so a
// per-device loop pays no call frames; TestAdvanceBitIdentical pins it
// bitwise to the Clamp/DxDt composition. The float64(...) barrier pins
// the FMA-fusable product to two roundings on every architecture
// (bit-neutral where the compiler was not fusing anyway).
func (m Model) Update(h, x, vM, g float64) float64 {
	// h(x, vM) of Eq. (31)/(40), flattened: the hard window on the side
	// that vM's sign blocks, at distance dist from its boundary.
	var hv float64
	if vM != 0 {
		dist := x
		if vM < 0 {
			dist = 1 - x
		}
		if dist > 0 {
			hv = 1
		}
	}
	xn := x + float64(h*(-m.Alpha*hv*g*vM))
	if xn < 0 {
		return 0
	} else if xn > 1 {
		return 1
	}
	return xn
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
