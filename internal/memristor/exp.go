package memristor

import "math"

// Constants of the amd64 exp kernel in the Go standard library
// (src/math/exp_amd64.s), after Shibata, "Efficient evaluation methods of
// elementary functions suitable for SIMD computation", ISC 2010.
const (
	expLog2e    = 1.4426950408889634073599246810018920                  // 1/ln 2
	expLn2U     = 0.69314718055966295651160180568695068359375           // upper half of ln 2
	expLn2L     = 0.28235290563031577122588448175013436025525412068e-12 // lower half of ln 2
	expOverflow = 7.09782712893384e+02
	// expUnderflow bounds the computed range from below: for x < −1000,
	// k ≤ −1443 and the assembly's 2^k scaling returns 0.
	expUnderflow = -1000
	// expRound is 1.5·2^52: v + expRound − expRound rounds v to the
	// nearest integer, ties to even, for |v| < 2^51 — what CVTSD2SL does
	// under the default rounding mode.
	expRound = 0x1.8p52
)

// exp is e^x computed op for op as the FMA branch of the amd64 assembly
// behind math.Exp. math.Exp dispatches to assembly whose bits depend on
// the host (the amd64 FMA and non-FMA branches and the arm64 kernel
// disagree in the last place on a sizeable share of inputs); every
// operation here is an IEEE add, multiply or fused multiply-add, so the
// result is the same on every architecture, and equals math.Exp on an
// amd64 host with FMA. math.FMA is a single instruction where the
// hardware has one and a correctly rounded software routine elsewhere.
//
// The argument is split as x = k·ln 2 + r with k the nearest integer to
// x/ln 2, r is scaled by 1/16, e^r is an eight-term Taylor polynomial,
// four doublings in the form e^{2r} − 1 = (e^r − 1)(e^r − 1 + 2) undo the
// scaling, and the result is scaled by 2^k, through the assembly's
// two-step path when 2^k is subnormal.
func exp(x float64) float64 {
	if !(x >= expUnderflow && x <= expOverflow) {
		if x > expOverflow { // and +Inf
			return math.Inf(1)
		}
		if x < expUnderflow { // and -Inf
			return 0
		}
		return x // NaN
	}
	// The float64 conversion rounds the product, so it cannot fuse into
	// the add on FMA targets.
	kf := float64(expLog2e*x) + expRound - expRound
	k := int32(kf)
	r := math.FMA(-kf, expLn2U, x)
	r = math.FMA(-kf, expLn2L, r)
	r *= 0.0625
	p := 2.4801587301587301587e-5
	p = math.FMA(p, r, 1.9841269841269841270e-4)
	p = math.FMA(p, r, 1.3888888888888888889e-3)
	p = math.FMA(p, r, 8.3333333333333333333e-3)
	p = math.FMA(p, r, 4.1666666666666666667e-2)
	p = math.FMA(p, r, 1.6666666666666666667e-1)
	p = math.FMA(p, r, 0.5)
	p = math.FMA(p, r, 1)
	r *= p
	r *= r + 2
	r *= r + 2
	r *= r + 2
	r = math.FMA(r, r+2, 1)
	// r · 2^k
	b := k + 0x3FF
	if b <= 0 {
		if b < -52 {
			return 0
		}
		r *= math.Float64frombits(uint64(b+0x3FE) << 52)
		b = 1
	} else if b >= 0x7FF {
		return math.Inf(1)
	}
	return r * math.Float64frombits(uint64(b)<<52)
}
