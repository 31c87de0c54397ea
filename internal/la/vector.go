// Package la provides the small dense/sparse linear-algebra kernel used by
// the circuit simulator. It is written against the standard library only:
// the repository targets environments without access to external numeric
// packages, so the few primitives the ODE and netlist layers need (vectors,
// dense LU, sparse matvec) are implemented here.
package la

import (
	"fmt"
	"math"
)

// Vector is a dense column vector of float64.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// CopyFrom copies src into v. The lengths must match.
func (v Vector) CopyFrom(src Vector) {
	if len(v) != len(src) {
		panic(fmt.Sprintf("la: CopyFrom length mismatch %d != %d", len(v), len(src)))
	}
	copy(v, src)
}

// Zero sets every component to 0.
func (v Vector) Zero() {
	for i := range v {
		v[i] = 0
	}
}

// Fill sets every component to c.
func (v Vector) Fill(c float64) {
	for i := range v {
		v[i] = c
	}
}

// Add sets v = v + w.
func (v Vector) Add(w Vector) {
	for i := range v {
		v[i] += w[i]
	}
}

// Sub sets v = v - w.
func (v Vector) Sub(w Vector) {
	for i := range v {
		v[i] -= w[i]
	}
}

// Scale sets v = c*v.
func (v Vector) Scale(c float64) {
	for i := range v {
		v[i] *= c
	}
}

// AXPY sets v = v + c*w.
func (v Vector) AXPY(c float64, w Vector) {
	for i := range v {
		v[i] += float64(c * w[i])
	}
}

// Dot returns the inner product of v and w.
func (v Vector) Dot(w Vector) float64 {
	var s float64
	for i := range v {
		s += float64(v[i] * w[i])
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func (v Vector) Norm2() float64 {
	return math.Sqrt(v.Dot(v))
}

// NormInf returns the maximum absolute component of v.
func (v Vector) NormInf() float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// MaxAbsDiff returns max_i |v[i]-w[i]|.
func (v Vector) MaxAbsDiff(w Vector) float64 {
	var m float64
	for i := range v {
		if a := math.Abs(v[i] - w[i]); a > m {
			m = a
		}
	}
	return m
}

// HasNaN reports whether any component is NaN or infinite. x − x is 0
// for a finite x and NaN otherwise, so the sum of those differences is
// NaN exactly when some component is not finite; four partial sums keep
// the scan branch-free and off one add's latency chain.
//
//dmmvet:hotpath
func (v Vector) HasNaN() bool {
	var a0, a1, a2, a3 float64
	i := 0
	for ; i+4 <= len(v); i += 4 {
		w := v[i : i+4 : i+4]
		a0 += w[0] - w[0]
		a1 += w[1] - w[1]
		a2 += w[2] - w[2]
		a3 += w[3] - w[3]
	}
	for _, x := range v[i:] {
		a0 += x - x
	}
	return math.IsNaN((a0 + a1) + (a2 + a3))
}
