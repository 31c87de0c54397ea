package classical

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTrialDivision(t *testing.T) {
	cases := []struct{ n, want uint64 }{
		{0, 0}, {1, 0}, {2, 2}, {3, 3}, {4, 2}, {35, 5}, {49, 7}, {47, 47}, {1 << 20, 2},
	}
	for _, c := range cases {
		if got := TrialDivision(c.n); got != c.want {
			t.Fatalf("TrialDivision(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestIsPrimeSmall(t *testing.T) {
	primes := map[uint64]bool{2: true, 3: true, 5: true, 7: true, 11: true, 13: true,
		47: true, 97: true, 7919: true}
	for n := uint64(0); n < 100; n++ {
		want := false
		if primes[n] {
			want = true
		} else if n > 1 {
			want = TrialDivision(n) == n
		}
		if got := IsPrime(n); got != want {
			t.Fatalf("IsPrime(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestIsPrimeLarge(t *testing.T) {
	if !IsPrime(18446744073709551557) { // largest 64-bit prime
		t.Fatal("largest 64-bit prime misclassified")
	}
	if IsPrime(18446744073709551557 - 2) {
		t.Fatal("composite misclassified")
	}
}

func TestPollardRho(t *testing.T) {
	cases := []uint64{35, 49, 143, 8051, 10403, 1299709 * 1299721}
	for _, n := range cases {
		d := PollardRho(n)
		if d <= 1 || d >= n || n%d != 0 {
			t.Fatalf("PollardRho(%d) = %d, not a nontrivial factor", n, d)
		}
	}
	if PollardRho(97) != 97 {
		t.Fatal("PollardRho on prime should return n")
	}
}

func TestFactorSemiprime(t *testing.T) {
	p, q := FactorSemiprime(35)
	if p != 5 || q != 7 {
		t.Fatalf("FactorSemiprime(35) = %d, %d", p, q)
	}
	p, q = FactorSemiprime(47)
	if p != 1 || q != 47 {
		t.Fatalf("FactorSemiprime(prime) = %d, %d", p, q)
	}
}

func TestFactorSemiprimeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// random semiprime from small primes
		primes := []uint64{3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41}
		a := primes[r.Intn(len(primes))]
		b := primes[r.Intn(len(primes))]
		p, q := FactorSemiprime(a * b)
		return p*q == a*b && p > 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSubsetSumAlgorithmsAgree(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(10)
		values := make([]uint64, n)
		for j := range values {
			values[j] = uint64(1 + r.Intn(63))
		}
		target := uint64(1 + r.Intn(200))
		mb, okB := SubsetSumBrute(values, target)
		md, okD := SubsetSumDP(values, target)
		mm, okM := SubsetSumMITM(values, target)
		if okB != okD || okB != okM {
			return false
		}
		if okB {
			if ApplyMask(values, mb) != target || ApplyMask(values, md) != target ||
				ApplyMask(values, mm) != target {
				return false
			}
			if mb == 0 || md == 0 || mm == 0 {
				return false // non-empty subset required
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSubsetSumKnown(t *testing.T) {
	values := []uint64{3, 34, 4, 12, 5, 2}
	if _, ok := SubsetSumDP(values, 9); !ok {
		t.Fatal("9 = 4+5 should be found")
	}
	if _, ok := SubsetSumDP(values, 30); ok {
		t.Fatal("30 has no subset")
	}
	if _, ok := SubsetSumBrute(values, 9); !ok {
		t.Fatal("brute misses 9")
	}
	if _, ok := SubsetSumMITM(values, 9); !ok {
		t.Fatal("MITM misses 9")
	}
}

// TestSubsetSumMITMOverflow checks that meet-in-the-middle never reports
// a subset whose sum wraps uint64 as a solution: 2^63 + (2^63+1) wraps
// to 1, so target 1 has no subset, while sums that fit still match.
func TestSubsetSumMITMOverflow(t *testing.T) {
	big := []uint64{1 << 63, 1<<63 + 1, 5, 7}
	for _, tc := range []struct {
		name   string
		values []uint64
		target uint64
		ok     bool
	}{
		{"wrapped pair", big, 1, false},
		{"wrapped triple", big, 6, false},
		{"wrapped with the right half", []uint64{5, 1 << 63, 7, 1<<63 + 1}, 8, false},
		{"small pair", big, 12, true},
		{"large and small", big, 1<<63 + 12, true},
		{"largest target", big, math.MaxUint64, false},
		{"largest target reached", []uint64{math.MaxUint64 - 7, 7, 1}, math.MaxUint64, true},
	} {
		m, ok := SubsetSumMITM(tc.values, tc.target)
		if ok != tc.ok {
			t.Errorf("%s: SubsetSumMITM(%v, %d) = (%#b, %v), want ok = %v", tc.name, tc.values, tc.target, m, ok, tc.ok)
			continue
		}
		if ok && (m == 0 || ApplyMask(tc.values, m) != tc.target) {
			t.Errorf("%s: mask %#b sums to %d, want %d", tc.name, m, ApplyMask(tc.values, m), tc.target)
		}
	}
}

func TestSubsetSumEmptyAndZeroTarget(t *testing.T) {
	if _, ok := SubsetSumMITM(nil, 5); ok {
		t.Fatal("empty set cannot sum to 5")
	}
	// Target 0 must not return the empty subset (NP-hard version wants a
	// non-empty one).
	if m, ok := SubsetSumDP([]uint64{1, 2}, 0); ok && m == 0 {
		t.Fatal("empty subset returned for target 0")
	}
}

// TestSubsetSumDPTargetAboveTotal: a target above the sum of the values
// has no subset, and the DP must say so without building its
// target-sized tables. The largest target used to wrap target+1 to 0 and
// index an empty table. Values whose total overflows uint64 still reach
// the DP.
func TestSubsetSumDPTargetAboveTotal(t *testing.T) {
	for _, target := range []uint64{9, 1 << 40, math.MaxUint64} {
		allocs := testing.AllocsPerRun(5, func() {
			if _, ok := SubsetSumDP([]uint64{3, 5}, target); ok {
				t.Fatalf("{3, 5} reaches %d", target)
			}
		})
		if allocs != 0 {
			t.Errorf("target %d: %v allocations, want 0", target, allocs)
		}
	}
	if m, ok := SubsetSumDP([]uint64{1 << 63, 1 << 63, 6}, 6); !ok || m != 0b100 {
		t.Fatalf("{2^63, 2^63, 6} target 6: mask %b ok %v, want 100 true", m, ok)
	}
}
