package device

import "math"

// VCDCG holds the parameters of the voltage-controlled differential current
// generator (Fig. 7 and Eqs. 23-24, 47). One VCDCG is attached to every
// free SOLC terminal; its current i and internal bistable variable s are
// state variables of the circuit ODE.
type VCDCG struct {
	// M0 is the magnitude of the negative slope of f_DCG at v = 0 (the
	// "negative inductor" that destabilizes the spurious v = 0 solution).
	M0 float64
	// M1 is the positive slope of f_DCG at v = ±Vc (the stabilizing
	// inductor-plus-DC-source behaviour at the logic levels).
	M1 float64
	// Q is the saturation magnitude of f_DCG (Fig. 7's dashed levels ±q).
	Q float64
	// Vc is the logic reference voltage.
	Vc float64
	// Gamma is the current decay rate in the retreat phase (Eq. 23).
	Gamma float64
	// IMin, IMax bound the current magnitude windows in f_s (Eq. 47).
	IMin, IMax float64
	// Ki, Ks are the drive and bistability strengths in f_s; the stability
	// picture of Fig. 10 requires Ki > (√3/18)·Ks.
	Ki, Ks float64
	// DeltaS, DeltaI are the widths of the smooth step θ̃₁ in ρ(s)
	// (Eq. 44) and the current windows; ≤ 0 selects the hard step
	// (Table II).
	DeltaS, DeltaI float64
	// DeltaIMin, DeltaIMax optionally give the imin and imax windows their
	// own widths (the windows act on i², so their natural scales imin² and
	// imax² differ by orders of magnitude); ≤ 0 falls back to DeltaI.
	DeltaIMin, DeltaIMax float64
}

// The coefficients of θ̃₁(y) = 3y² − 2y³ as memristor.NewSmoothStep(1)
// computes them, from its normalization: the nearest doubles below 3
// and above −2, not 3 and −2.
const theta1C0, theta1C1 = 2.9999999999999996, -1.9999999999999998

// theta1 is the smooth step θ̃₁ (Eq. 37 at r = 1) of the VCDCG windows.
// It performs memristor.SmoothStep.Eval's operations at r = 1 in the
// same order, so it returns NewSmoothStep(1).Eval's bits, and the
// compiler inlines it.
//
//dmmvet:hotpath
func theta1(y float64) float64 {
	if y <= 0 {
		return 0
	}
	if y >= 1 {
		return 1
	}
	return (float64(theta1C1*y) + theta1C0) * (y * y)
}

// DefaultVCDCG returns the Table II VCDCG: m0 = m1 = 400, q = 10, γ = 60,
// imin = 1e-8, imax = 20, ki = ks = 1e-7, δs = δi = 0, vc = 1. Note that
// ki = ks satisfies the Fig. 10 requirement ki > (√3/18)·ks.
func DefaultVCDCG() VCDCG {
	return VCDCG{
		M0: 400, M1: 400, Q: 10, Vc: 1, Gamma: 60,
		IMin: 1e-8, IMax: 20, Ki: 1e-7, Ks: 1e-7,
		DeltaS: 0, DeltaI: 0,
	}
}

// FDCG evaluates the piecewise-linear current-drive function of Fig. 7:
// an odd function with slope -M0 through the origin, slope +M1 through
// ±Vc, and saturation at ±Q. Between 0 and Vc it is the upper envelope of
// the two linear pieces clamped at -Q (mirrored on the negative side),
// reproducing the sketch in Fig. 7.
func (d VCDCG) FDCG(v float64) float64 {
	if v < 0 {
		return -d.FDCG(-v)
	}
	// v >= 0.
	var raw float64
	if v <= d.Vc {
		raw = math.Max(-d.M0*v, d.M1*(v-d.Vc))
	} else {
		raw = d.M1 * (v - d.Vc)
	}
	if raw > d.Q {
		return d.Q
	}
	if raw < -d.Q {
		return -d.Q
	}
	if raw == 0 {
		return 0 // normalize -0 from max(-m0·0, ...)
	}
	return raw
}

// Rho evaluates ρ(s) = θ̃₁((s - 1/2)/δs + 1/2) (Eq. 44); with δs ≤ 0 it
// is the hard step at s = 1/2.
func (d VCDCG) Rho(s float64) float64 {
	if d.DeltaS <= 0 {
		if s > 0.5 {
			return 1
		}
		return 0
	}
	return theta1((s-0.5)/d.DeltaS + 0.5)
}

// FsOffset computes the current-dependent constant of f_s (Eq. 47):
//
//	c = Ki·(A + B - 1),  A = Π_j θ̃((imin²-i_j²)/δi),  B = Π_j θ̃((imax²-i_j²)/δi),
//
// so c = +Ki when every |i_j| < imin (drive phase: the unique equilibrium of
// s moves above 1/2+√3/3, turning ρ(s) on), c = -Ki when some |i_j| > imax
// (retreat phase: the unique equilibrium moves below 1/2-√3/3, turning
// ρ(1-s) on so currents decay), and c = 0 in between (bistable hold). This
// reproduces the three red lines of Fig. 10 — the figure plots the cubic
// -ks·s(s-1)(2s-1) and marks its intersections with the level -c.
//
// Each window is θ̃₁((iRef² - i²)/δ): 1 when |i| < iRef and 0 when
// |i| > iRef, the hard step when δ ≤ 0. The window form
// and each δ (DeltaIMin or DeltaIMax, falling back to DeltaI when ≤ 0)
// are chosen once per call, not per current.
func (d VCDCG) FsOffset(currents []float64) float64 {
	dMin, dMax := d.DeltaIMin, d.DeltaIMax
	if dMin <= 0 {
		dMin = d.DeltaI
	}
	if dMax <= 0 {
		dMax = d.DeltaI
	}
	hardMin, hardMax := dMin <= 0, dMax <= 0
	min2, max2 := float64(d.IMin*d.IMin), float64(d.IMax*d.IMax)
	a, b := 1.0, 1.0 // a hard window is 1 or 0, so its product is too
	for _, i := range currents {
		i2 := float64(i * i)
		if argMin := min2 - i2; hardMin {
			if !(argMin > 0) {
				a = 0
			}
		} else {
			a *= theta1(argMin / dMin)
		}
		if argMax := max2 - i2; hardMax {
			if !(argMax > 0) {
				b = 0
			}
		} else {
			b *= theta1(argMax / dMax)
		}
	}
	return d.Ki * (a + b - 1)
}

// Fs evaluates the s-equation right-hand side (Eq. 47) given the offset
// computed by FsOffset:
//
//	ds/dt = -Ks·s(s-1)(2s-1) + offset .
func (d VCDCG) Fs(s, offset float64) float64 {
	return float64(-d.Ks*s*(s-1)*(float64(2*s)-1)) + offset
}

// DiDt evaluates the current equation (Eq. 23) for one VCDCG:
//
//	di/dt = ρ(s)·f_DCG(v) - γ·ρ(1-s)·i .
func (d VCDCG) DiDt(v, i, s float64) float64 {
	return float64(d.Rho(s)*d.FDCG(v)) - float64(d.Gamma*d.Rho(1-s)*i)
}

// IBoundFactor scales IMax to the bound Advance holds every current
// inside: the dynamics keep |i| near IMax (Prop. VI.5), and the factor
// leaves room for one explicit step of overshoot.
const IBoundFactor = 1.5

// Advance is the explicit VCDCG update of one IMEX step: for every
// generator k, with terminal voltage v[k], it replaces
//
//	i[k] by i[k] + h·DiDt(v[k], i[k], s[k]),
//	s[k] by s[k] + h·Fs(s[k], FsOffset(i)),
//
// with the offset taken from the currents before the update. A finite
// new current beyond ±IBoundFactor·IMax is clamped to that bound; NaN
// and ±Inf are left as they are, so the caller's non-finite check still
// sees them. The parameters are hoisted once per call instead of copying
// the whole VCDCG into every DiDt call, and ρ(s), ρ(1-s) and f_DCG are
// straight-line code performing the methods' operations in the same
// order, so the result is bit-identical to them (TestAdvanceBitIdentical).
//
//dmmvet:hotpath
func (d VCDCG) Advance(h float64, v, i, s []float64) {
	offset := d.FsOffset(i)
	iBound := IBoundFactor * d.IMax
	nm0, m1, vc, q, nq := -d.M0, d.M1, d.Vc, d.Q, -d.Q
	gamma, nks := d.Gamma, -d.Ks
	hardRho := d.DeltaS <= 0
	deltaS := d.DeltaS
	i, s = i[:len(v)], s[:len(v)]
	for k, vk := range v {
		ik, sk := i[k], s[k]
		// ρ(s) and ρ(1-s) of Eq. (44).
		var rho, rhoBar float64
		if hardRho {
			if sk > 0.5 {
				rho = 1
			}
			if 1-sk > 0.5 {
				rhoBar = 1
			}
		} else {
			rho = theta1((sk-0.5)/deltaS + 0.5)
			rhoBar = theta1(((1-sk)-0.5)/deltaS + 0.5)
		}
		// f_DCG(v) as f(|v|) mirrored: FDCG's odd-symmetry recursion unrolled.
		a := vk
		if vk < 0 {
			a = -vk
		}
		var f float64
		if a <= vc {
			f = math.Max(nm0*a, m1*(a-vc))
		} else {
			f = m1 * (a - vc)
		}
		if f > q {
			f = q
		} else if f < nq {
			f = nq
		} else if f == 0 {
			f = 0 // normalize -0 from max(-m0·0, ...)
		}
		if vk < 0 {
			f = -f
		}
		in := ik + float64(h*(float64(rho*f)-float64(gamma*rhoBar*ik)))
		if a := math.Abs(in); a > iBound && a <= math.MaxFloat64 {
			in = math.Copysign(iBound, in)
		}
		i[k] = in
		s[k] = sk + float64(h*(float64(nks*sk*(sk-1)*(float64(2*sk)-1))+offset))
	}
}

// SEquilibria returns the real roots of Fs(s, offset) = 0 sorted
// ascending, each flagged stable (ds/dt decreasing through the root) or
// not; this regenerates the Fig. 10 stability picture.
func (d VCDCG) SEquilibria(offset float64) []SRoot {
	f := func(s float64) float64 { return d.Fs(s, offset) }
	var roots []SRoot
	// The cubic's roots lie within [-1, 2] for |offset| ≤ Ki and the
	// paper's parameter regime; scan and bisect.
	const n = 4000
	lo, hi := -1.0, 2.0
	prev := f(lo)
	for k := 1; k <= n; k++ {
		s := lo + (hi-lo)*float64(k)/n
		cur := f(s)
		if prev == 0 {
			prev = cur
			continue
		}
		if cur == 0 || (prev < 0) != (cur < 0) {
			a, b := lo+(hi-lo)*float64(k-1)/n, s
			for it := 0; it < 80; it++ {
				mid := float64(0.5 * (a + b))
				if f(a)*f(mid) <= 0 {
					b = mid
				} else {
					a = mid
				}
			}
			root := float64(0.5 * (a + b))
			stable := f(root-1e-6) > 0 && f(root+1e-6) < 0
			roots = append(roots, SRoot{S: root, Stable: stable})
		}
		prev = cur
	}
	return roots
}

// SRoot is one equilibrium of the s dynamics.
type SRoot struct {
	S      float64
	Stable bool
}

// SMax returns the unique zero of Fs with the drive offset +Ki (all
// currents below imin, i_DCG = 0), which Prop. VI.5 identifies as the upper
// bound s_max of the invariant region for s.
func (d VCDCG) SMax() float64 {
	roots := d.SEquilibria(+d.Ki)
	if len(roots) == 0 {
		return 1
	}
	return roots[len(roots)-1].S
}
