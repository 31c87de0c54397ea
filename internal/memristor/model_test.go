package memristor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMemristanceEndpoints(t *testing.T) {
	m := Default()
	if m.M(0) != m.Ron {
		t.Fatalf("M(0) = %v, want Ron = %v", m.M(0), m.Ron)
	}
	if m.M(1) != m.Roff {
		t.Fatalf("M(1) = %v, want Roff = %v", m.M(1), m.Roff)
	}
}

func TestConductanceIsInverseMemristance(t *testing.T) {
	m := Default()
	for x := 0.0; x <= 1.0; x += 0.1 {
		if got, want := m.G(x), 1/m.M(x); math.Abs(got-want) > 1e-12 {
			t.Fatalf("g(%v) = %v, want 1/M = %v", x, got, want)
		}
	}
}

func TestWindowBlocksAtBoundaries(t *testing.T) {
	m := Default() // hard window (k = ∞)
	// At x=0 with vM>0 the state would decrease below 0: h must be 0.
	if h := m.H(0, +1); h != 0 {
		t.Fatalf("h(0, +v) = %v, want 0 (x cannot leave [0,1], Prop. VI.2)", h)
	}
	// At x=1 with vM<0 the state would increase above 1: h must be 0.
	if h := m.H(1, -1); h != 0 {
		t.Fatalf("h(1, -v) = %v, want 0", h)
	}
	// Opposite signs re-enter the interval: h > 0.
	if h := m.H(0, -1); h <= 0 {
		t.Fatalf("h(0, -v) = %v, want > 0", h)
	}
	if h := m.H(1, +1); h <= 0 {
		t.Fatalf("h(1, +v) = %v, want > 0", h)
	}
}

func TestDxDtSignDrivesTowardBoundaries(t *testing.T) {
	m := Default()
	// Positive voltage (current g·v > 0) decreases x (Eq. 33).
	if d := m.DxDt(0.5, +0.8); d >= 0 {
		t.Fatalf("dx/dt = %v at vM>0, want < 0", d)
	}
	// Negative voltage increases x (Eq. 34).
	if d := m.DxDt(0.5, -0.8); d <= 0 {
		t.Fatalf("dx/dt = %v at vM<0, want > 0", d)
	}
	// Zero voltage: no drift.
	if d := m.DxDt(0.5, 0); d != 0 {
		t.Fatalf("dx/dt = %v at vM=0, want 0", d)
	}
}

func TestInvarianceProperty(t *testing.T) {
	// Prop. VI.2: starting anywhere in [0,1], a forward-Euler flow with
	// clamping stays in [0,1] for any voltage history.
	m := Default()
	f := func(x0, v float64, seed int64) bool {
		x := math.Mod(math.Abs(x0), 1)
		if math.IsNaN(x) || math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		vv := math.Mod(v, 2)
		dt := 1e-3
		for i := 0; i < 200; i++ {
			x = Clamp(x + dt*m.DxDt(x, vv))
			if x < 0 || x > 1 {
				return false
			}
			vv = -vv // alternate drive
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestClamp(t *testing.T) {
	cases := []struct{ in, want float64 }{{-0.1, 0}, {0, 0}, {0.4, 0.4}, {1, 1}, {1.3, 1}}
	for _, c := range cases {
		if got := Clamp(c.in); got != c.want {
			t.Fatalf("Clamp(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestEquilibriumAtBoundariesUnderConstantDrive(t *testing.T) {
	// Integrating under constant positive voltage must settle at x=0
	// (conductance Ron side); constant negative voltage at x=1 (Sec. VI-G).
	m := Default()
	integrate := func(v float64) float64 {
		x := 0.5
		dt := 1e-4
		for i := 0; i < 200000; i++ {
			x = Clamp(x + dt*m.DxDt(x, v))
		}
		return x
	}
	if x := integrate(+1); x > 1e-6 {
		t.Fatalf("x(∞) under +v = %v, want 0", x)
	}
	if x := integrate(-1); x < 1-1e-6 {
		t.Fatalf("x(∞) under -v = %v, want 1", x)
	}
}

// TestWindowZeroFastPathBitIdentical pins the hard window (k = ∞) to
// exactly 0 at the blocking boundary d = 0, signed zero included, and
// exactly 1 inside, and H and DxDt bitwise to the Eq. (31)/(40) formula
// with the Heaviside gate, θ(d)·θ(vM) + θ(1-x)·θ(-vM), over boundary and
// interior states alike.
func TestWindowZeroFastPathBitIdentical(t *testing.T) {
	m := Default()
	step := func(v float64) float64 {
		if v > 0 {
			return 1
		}
		return 0
	}
	for _, d := range []float64{0, math.Copysign(0, -1), -1e-300, 1e-300, 1e-9, 0.25, 0.5, 1} {
		if got, want := m.window(d), step(d); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("window(%v) = %v (%#x), want %v (%#x)",
				d, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		x := rng.Float64()
		if rng.Intn(4) == 0 { // exercise the clamped boundaries often
			x = float64(rng.Intn(2))
		}
		vM := 2 * (rng.Float64() - 0.5)
		if rng.Intn(8) == 0 {
			vM = 0
		}
		h := step(x)*step(vM) + step(1-x)*step(-vM)
		if got := m.H(x, vM); math.Float64bits(got) != math.Float64bits(h) {
			t.Fatalf("H(%v, %v) = %v, want %v", x, vM, got, h)
		}
		want := -m.Alpha * h * m.G(x) * vM
		if got := m.DxDt(x, vM); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("DxDt(%v, %v) = %v (%#x), want %v (%#x)",
				x, vM, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestAdvanceBitIdentical pins Update, the memristor half of the IMEX
// step's slow-state advance, fed the stepper's conductances G(x), to the
// per-device composition Clamp(x + h·DxDt(x, σ·d)) bitwise over states
// in [0,1], boundary states included, and ±0, NaN and ±Inf drops, at
// Table II's α and at the Default preset's α = 0.5.
func TestAdvanceBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	slow := Default()
	slow.Alpha = 0.5
	for mi, m := range []Model{Default(), slow} {
		var xs, sigmas, ds []float64
		add := func(sigma, x, d float64) {
			xs, sigmas, ds = append(xs, x), append(sigmas, sigma), append(ds, d)
		}
		for trial := 0; trial < 500; trial++ {
			sigma := 1.0
			if rng.Intn(2) == 0 {
				sigma = -1
			}
			x := rng.Float64()
			if rng.Intn(4) == 0 {
				x = float64(rng.Intn(2))
			}
			d := 2 * (rng.Float64() - 0.5)
			if rng.Intn(5) == 0 {
				d = 0
			}
			add(sigma, x, d)
		}
		edges := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}
		for _, d := range edges {
			for _, sigma := range []float64{1, -1} {
				for _, x := range []float64{0, 0.3, 1} {
					add(sigma, x, d)
					add(sigma, x, -d)
				}
			}
		}
		for _, h := range []float64{1e-3, 7.3e-4, 0.25} {
			for j, x := range xs {
				got := m.Update(h, x, sigmas[j]*ds[j], m.G(x))
				want := Clamp(x + float64(h*m.DxDt(x, sigmas[j]*ds[j])))
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("model %d: Update %v (%#x), scalar composition %v (%#x) [h=%v σ=%v x=%v d=%v]",
						mi, got, math.Float64bits(got), want, math.Float64bits(want), h, sigmas[j], x, ds[j])
				}
			}
		}
	}
}
