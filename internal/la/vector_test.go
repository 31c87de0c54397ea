package la

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVectorOps(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, 5, 6}
	v.Add(w)
	if v[0] != 5 || v[1] != 7 || v[2] != 9 {
		t.Fatalf("Add: got %v", v)
	}
	v.Sub(w)
	if v[0] != 1 || v[1] != 2 || v[2] != 3 {
		t.Fatalf("Sub: got %v", v)
	}
	v.Scale(2)
	if v[0] != 2 || v[1] != 4 || v[2] != 6 {
		t.Fatalf("Scale: got %v", v)
	}
	v.AXPY(0.5, w)
	if v[0] != 4 || v[1] != 6.5 || v[2] != 9 {
		t.Fatalf("AXPY: got %v", v)
	}
}

func TestDotNorm(t *testing.T) {
	v := Vector{3, 4}
	if v.Dot(v) != 25 {
		t.Fatalf("Dot = %v, want 25", v.Dot(v))
	}
	if v.Norm2() != 5 {
		t.Fatalf("Norm2 = %v, want 5", v.Norm2())
	}
	if v.NormInf() != 4 {
		t.Fatalf("NormInf = %v, want 4", v.NormInf())
	}
}

func TestMaxAbsDiff(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{1, 2.5, 2}
	if got := v.MaxAbsDiff(w); got != 1 {
		t.Fatalf("MaxAbsDiff = %v, want 1", got)
	}
}

func TestHasNaN(t *testing.T) {
	if (Vector{1, 2}).HasNaN() {
		t.Fatal("false positive")
	}
	if !(Vector{1, math.NaN()}).HasNaN() {
		t.Fatal("missed NaN")
	}
	if !(Vector{math.Inf(1)}).HasNaN() {
		t.Fatal("missed Inf")
	}
	// Every length around the scan's unroll by four: finite values with
	// ±MaxFloat64 at the ends pass, and NaN or ±Inf at any position, the
	// tail the unroll leaves included, is found.
	for n := 0; n <= 13; n++ {
		v := make(Vector, n)
		for k := range v {
			v[k] = float64(k) - 6.5
		}
		if n > 0 {
			v[0], v[n-1] = math.MaxFloat64, -math.MaxFloat64
		}
		if v.HasNaN() {
			t.Fatalf("len %d: false positive on %v", n, v)
		}
		for k := 0; k < n; k++ {
			for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				w := v.Clone()
				w[k] = bad
				if !w.HasNaN() {
					t.Fatalf("len %d: missed %v at %d", n, bad, k)
				}
			}
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	v := Vector{1, 2}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Fatal("Clone aliases the original")
	}
}

// Property: Cauchy-Schwarz |v·w| <= |v||w|.
func TestCauchySchwarzProperty(t *testing.T) {
	f := func(a, b, c, d, e, g float64) bool {
		for _, x := range []float64{a, b, c, d, e, g} {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true // skip degenerate inputs
			}
		}
		v := Vector{a, b, c}
		w := Vector{d, e, g}
		return math.Abs(v.Dot(w)) <= v.Norm2()*w.Norm2()*(1+1e-9)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
