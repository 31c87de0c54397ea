package memristor

import (
	"math"
	"testing"
)

// TestExpGoldenBits pins exp to bit patterns recorded from math.Exp on
// an amd64 host with FMA, whose assembly exp ports op for op: k = 0/−1
// and k = −1/−2 rounding boundaries and their neighbours, the window's
// range −K·dist ∈ [−20, 0], the last normal results, the subnormal
// branch, the underflow to 0, and the overflow to +Inf. The port uses only IEEE operations and
// math.FMA, so the table holds on every architecture, and with
// GODEBUG=cpu.fma=off, where math.Exp itself takes another branch.
func TestExpGoldenBits(t *testing.T) {
	for _, tc := range []struct {
		x    float64
		bits uint64
	}{
		{0, 0x3ff0000000000000},
		{math.Copysign(0, -1), 0x3ff0000000000000},
		{-5e-324, 0x3ff0000000000000},
		{-1e-300, 0x3ff0000000000000},
		{-1e-17, 0x3ff0000000000000},
		{-0.34657359027997264, 0x3fe6a09e667f3bcd}, // −ln2/2: k = 0 | −1
		{-0.3465735902799726, 0x3fe6a09e667f3bcd},
		{-0.3465735902799727, 0x3fe6a09e667f3bcc},
		{-1.0397207708399179, 0x3fd6a09e667f3bcd}, // −3ln2/2: k = −1 | −2
		{-1.0397207708399177, 0x3fd6a09e667f3bcf},
		{-1.039720770839918, 0x3fd6a09e667f3bcb},
		{-0.05, 0x3fee7078b0a726a6},
		{-0.1, 0x3fecf46d99d52b3a},
		{-1, 0x3fd78b56362cef38},
		{-2.5, 0x3fb50385c094f425},
		{-7.3, 0x3f4622d4792b6a8d},
		{-13.862943611198906, 0x3eb0000000000000}, // −20 ln2
		{-19.75469464595844, 0x3e26a09e667f3bce},  // −28.5 ln2
		{-19.999999999999996, 0x3e21b48655f37279},
		{-20, 0x3e21b48655f37267},
		{-100, 0x36ea8c1f14e2af5d},
		{-708.3964185322641, 0x001000000000007c}, // last normal result
		{-708.3964185322642, 0x000ffffffffffe7c}, // first subnormal
		{-709.0895657128241, 0x0007ffffffffffba},
		{-720, 0x0000000993b4dc95},
		{-744.4400719213812, 0x0000000000000001},
		{-745.1332191019411, 0x0000000000000001},
		{-745.1332191019412, 0},
		{-746, 0},
		{-1000, 0}, // lower end of the computed range
		{-1000.0000000000001, 0},
		{-1e300, 0},
		{math.Inf(-1), 0},
		{1, 0x4005bf0a8b145769},
		{709.7, 0x7ff0000000000000}, // k = 1024: the assembly overflows early
		{710, 0x7ff0000000000000},
		{math.Inf(1), 0x7ff0000000000000},
	} {
		if got := math.Float64bits(exp(tc.x)); got != tc.bits {
			t.Errorf("exp(%v) = %#016x, want %#016x", tc.x, got, tc.bits)
		}
	}
	if !math.IsNaN(exp(math.NaN())) {
		t.Error("exp(NaN) is not NaN")
	}
}
