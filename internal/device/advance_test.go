package device

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/memristor"
)

// boundCurrent is the clamp Advance applies to a new current: a finite
// value beyond ±IBoundFactor·IMax goes to that bound, anything else
// stays.
func boundCurrent(d VCDCG, i float64) float64 {
	b := IBoundFactor * d.IMax
	switch {
	case i > b && !math.IsInf(i, 1):
		return b
	case i < -b && !math.IsInf(i, -1):
		return -b
	}
	return i
}

// TestAdvanceBitIdentical pins VCDCG.Advance to the per-generator update
// through FsOffset, DiDt and Fs, with the new current bounded by
// boundCurrent, bitwise, over hard and smooth ρ and current windows and
// inputs on every branch point of f_DCG, ρ and the windows, including
// ±0, ±Inf and NaN.
func TestAdvanceBitIdentical(t *testing.T) {
	soft := DefaultVCDCG() // the circuit package's robust preset
	soft.Ks, soft.Ki, soft.IMin = 5, 5, 0.5
	soft.DeltaS, soft.DeltaIMin, soft.DeltaIMax = 0.2, 0.25, 40
	mixed := soft // smooth imin window, hard imax window
	mixed.DeltaIMax = 0
	models := []VCDCG{DefaultVCDCG(), soft, mixed}

	nan, inf := math.NaN(), math.Inf(1)
	rng := rand.New(rand.NewSource(11))
	for mi, d := range models {
		vs := []float64{0, math.Copysign(0, -1), d.Vc, -d.Vc, d.Vc / 2, d.Q / d.M1, nan, inf, -inf,
			math.Nextafter(d.Vc, 0), math.Nextafter(d.Vc, inf)}
		ss := []float64{0.5, math.Nextafter(0.5, 0), math.Nextafter(0.5, 1), 0, 1, -0.3, 1.3, nan, inf, -inf}
		is := []float64{0, math.Copysign(0, -1), d.IMin, -d.IMin, d.IMax, -d.IMax, 2 * d.IMax, nan, inf}
		// Every edge value alone, then random mixes of edges and
		// in-range draws.
		var sets [][3][]float64
		for _, v := range vs {
			for _, s := range ss {
				for _, i := range is[:2] { // ±0
					sets = append(sets, [3][]float64{{v}, {i}, {s}})
				}
			}
		}
		for _, i := range is {
			sets = append(sets, [3][]float64{{0.3}, {i}, {1}})
		}
		pick := func(edges []float64, lo, hi float64) float64 {
			if rng.Intn(4) == 0 {
				return edges[rng.Intn(len(edges))]
			}
			return lo + (hi-lo)*rng.Float64()
		}
		for trial := 0; trial < 400; trial++ {
			n := 1 + rng.Intn(6)
			var set [3][]float64
			for k := 0; k < n; k++ {
				set[0] = append(set[0], pick(vs, -3*d.Vc, 3*d.Vc))
				set[1] = append(set[1], pick(is, -1.5*d.IMax, 1.5*d.IMax))
				set[2] = append(set[2], pick(ss, -0.3, 1.3))
			}
			sets = append(sets, set)
		}
		for _, set := range sets {
			v, i0, s0 := set[0], set[1], set[2]
			h := 1e-3
			i := append([]float64(nil), i0...)
			s := append([]float64(nil), s0...)
			d.Advance(h, v, i, s)
			offset := d.FsOffset(i0)
			for k := range v {
				wantI := boundCurrent(d, i0[k]+float64(h*d.DiDt(v[k], i0[k], s0[k])))
				wantS := s0[k] + float64(h*d.Fs(s0[k], offset))
				if math.Float64bits(i[k]) != math.Float64bits(wantI) || math.Float64bits(s[k]) != math.Float64bits(wantS) {
					t.Fatalf("model %d, generator %d of v=%v i=%v s=%v: Advance gives (i, s) = (%v, %v), methods (%v, %v)",
						mi, k, v, i0, s0, i[k], s[k], wantI, wantS)
				}
			}
		}
	}
}

// TestAdvanceBoundsCurrent checks the current bound of Advance: a finite
// overshoot of either sign is clamped to ±IBoundFactor·IMax = ±1.5·IMax,
// and a NaN or ±Inf current, here from an input NaN and from an
// overflowing step, is left for the caller's non-finite check.
func TestAdvanceBoundsCurrent(t *testing.T) {
	d := DefaultVCDCG()
	bound := 1.5 * d.IMax
	max := math.MaxFloat64
	for _, tc := range []struct {
		name    string
		h, v, i float64
		want    float64
	}{
		{"overshoot above", 1, 2 * d.Vc, 1.4 * d.IMax, bound},
		{"overshoot below", 1, -2 * d.Vc, -1.4 * d.IMax, -bound},
		{"inside", 1e-3, 2 * d.Vc, 1.4 * d.IMax, 1.4*d.IMax + float64(1e-3*d.Q)},
		{"NaN", 1e-3, d.Vc, math.NaN(), math.NaN()},
		{"+Inf", max, 2 * d.Vc, 0, math.Inf(1)},
		{"-Inf", max, -2 * d.Vc, 0, math.Inf(-1)},
	} {
		i, s := []float64{tc.i}, []float64{1} // s = 1: ρ(s) = 1, ρ(1-s) = 0
		d.Advance(tc.h, []float64{tc.v}, i, s)
		if math.Float64bits(i[0]) != math.Float64bits(tc.want) {
			t.Errorf("%s: Advance current %v, want %v", tc.name, i[0], tc.want)
		}
	}
}

// TestFsOffsetBitIdentical pins FsOffset, which picks each window's form
// and width once per call, to the product of per-current windows
// θ̃₁((iRef² - i²)/δ) evaluated one by one through
// memristor.NewSmoothStep(1), bitwise, over the same window
// configurations and edge currents as TestAdvanceBitIdentical.
func TestFsOffsetBitIdentical(t *testing.T) {
	step := memristor.NewSmoothStep(1)
	window := func(iRef, i, delta float64) float64 {
		arg := float64(iRef*iRef) - float64(i*i)
		if delta <= 0 {
			if arg > 0 {
				return 1
			}
			return 0
		}
		return step.Eval(arg / delta)
	}
	soft := DefaultVCDCG()
	soft.IMin, soft.DeltaIMin, soft.DeltaIMax = 0.5, 0.25, 40
	mixed := soft
	mixed.DeltaIMax = 0
	rng := rand.New(rand.NewSource(5))
	for mi, d := range []VCDCG{DefaultVCDCG(), soft, mixed} {
		edges := []float64{0, math.Copysign(0, -1), d.IMin, -d.IMin, d.IMax, -d.IMax,
			math.Nextafter(d.IMin, 0), math.Nextafter(d.IMax, 100), math.NaN(), math.Inf(1)}
		for trial := 0; trial < 2000; trial++ {
			currents := make([]float64, rng.Intn(8))
			for k := range currents {
				currents[k] = (2*rng.Float64() - 1) * 1.5 * d.IMax * math.Pow(10, -8*rng.Float64())
				if rng.Intn(4) == 0 {
					currents[k] = edges[rng.Intn(len(edges))]
				}
			}
			a, b := 1.0, 1.0
			for _, i := range currents {
				a *= window(d.IMin, i, d.DeltaIMin)
				b *= window(d.IMax, i, d.DeltaIMax)
			}
			want := d.Ki * (a + b - 1)
			if got := d.FsOffset(currents); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("model %d, currents %v: FsOffset %v (%#x), per-current windows %v (%#x)",
					mi, currents, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// TestTheta1MatchesSmoothStep pins the VCDCG's fixed θ̃₁ to
// memristor.NewSmoothStep(1).Eval, bitwise: on 0, 1, ±0, ±Inf, the
// neighbours of 0 and 1, subnormals, and a dense grid of (0,1). A NaN
// must stay NaN.
func TestTheta1MatchesSmoothStep(t *testing.T) {
	step := memristor.NewSmoothStep(1)
	ys := []float64{0, math.Copysign(0, -1), 1, -1, 2, math.Inf(1), math.Inf(-1),
		math.Nextafter(0, 1), math.Nextafter(0, -1), math.Nextafter(1, 0), math.Nextafter(1, 2),
		math.SmallestNonzeroFloat64, 0x1p-1023, 0x1p-1030, 0x1p-1074 * 12345, -0x1p-1030,
		0x1p-511, 0x1p-537, 0x1p-538, 0.5}
	const grid = 1 << 20
	for k := 1; k < grid; k++ {
		ys = append(ys, float64(k)/grid)
	}
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 1<<16; k++ {
		ys = append(ys, rng.Float64(), math.Ldexp(rng.Float64(), -rng.Intn(1074)))
	}
	for _, y := range ys {
		got, want := theta1(y), step.Eval(y)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("theta1(%v) = %v (%#x), NewSmoothStep(1).Eval %v (%#x)",
				y, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	if got := theta1(math.NaN()); !math.IsNaN(got) || !math.IsNaN(step.Eval(math.NaN())) {
		t.Fatalf("theta1(NaN) = %v, NewSmoothStep(1).Eval(NaN) = %v, want NaN from both", got, step.Eval(math.NaN()))
	}
	if c := step.Coefficients(); c[0] != theta1C0 || c[1] != theta1C1 {
		t.Fatalf("NewSmoothStep(1) coefficients %v, theta1 holds [%v %v]", c, theta1C0, theta1C1)
	}
}
