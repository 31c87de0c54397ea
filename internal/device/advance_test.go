package device

import (
	"math"
	"math/rand"
	"testing"
)

// TestAdvanceBitIdentical pins VCDCG.Advance to the per-generator update
// through FsOffset, DiDt and Fs bitwise, over hard and smooth ρ and
// current windows, a missing smooth step, and inputs on every branch point
// of f_DCG, ρ and the windows, including ±0, ±Inf and NaN.
func TestAdvanceBitIdentical(t *testing.T) {
	soft := DefaultVCDCG() // the circuit package's robust preset
	soft.Ks, soft.Ki, soft.IMin = 5, 5, 0.5
	soft.DeltaS, soft.DeltaIMin, soft.DeltaIMax = 0.2, 0.25, 40
	mixed := soft // smooth imin window, hard imax window
	mixed.DeltaIMax, mixed.DeltaI = 0, 0
	fallback := soft // both windows fall back to DeltaI
	fallback.DeltaIMin, fallback.DeltaIMax, fallback.DeltaI = 0, 0, 3
	noStep := soft
	noStep.Step = nil
	models := []VCDCG{DefaultVCDCG(), soft, mixed, fallback, noStep}

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
				wantI := i0[k] + float64(h*d.DiDt(v[k], i0[k], s0[k]))
				wantS := s0[k] + float64(h*d.Fs(s0[k], offset))
				if math.Float64bits(i[k]) != math.Float64bits(wantI) || math.Float64bits(s[k]) != math.Float64bits(wantS) {
					t.Fatalf("model %d, generator %d of v=%v i=%v s=%v: Advance gives (i, s) = (%v, %v), methods (%v, %v)",
						mi, k, v, i0, s0, i[k], s[k], wantI, wantS)
				}
			}
		}
	}
}
