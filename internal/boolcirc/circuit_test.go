package boolcirc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOpEval(t *testing.T) {
	cases := []struct {
		op   Op
		a, b bool
		want bool
	}{
		{And, true, true, true}, {And, true, false, false},
		{Or, false, false, false}, {Or, false, true, true},
		{Xor, true, true, false}, {Xor, false, true, true},
		{Nand, true, true, false}, {Nor, false, false, true},
		{Xnor, true, true, true}, {Xnor, false, true, false},
	}
	for _, c := range cases {
		if got := c.op.Eval(c.a, c.b); got != c.want {
			t.Fatalf("%v(%v,%v) = %v, want %v", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestEvalSimple(t *testing.T) {
	c := New()
	a, b := c.NewSignal(), c.NewSignal()
	c.MarkInput(a, b)
	o := c.And(a, b)
	c.MarkOutput(o)
	for _, tc := range []struct{ a, b, want bool }{
		{false, false, false}, {true, false, false}, {true, true, true},
	} {
		assign, err := c.Eval([]bool{tc.a, tc.b})
		if err != nil {
			t.Fatal(err)
		}
		if got := c.OutputBits(assign)[0]; got != tc.want {
			t.Fatalf("AND(%v,%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestEvalConstAndNot(t *testing.T) {
	c := New()
	one := c.Const(true)
	n := c.Not(one)
	c.MarkOutput(n)
	assign, err := c.Eval(nil)
	if err != nil {
		t.Fatal(err)
	}
	if assign[n] {
		t.Fatal("¬1 should be 0")
	}
}

func TestEvalInputCountMismatch(t *testing.T) {
	c := New()
	a := c.NewSignal()
	c.MarkInput(a)
	if _, err := c.Eval(nil); err == nil {
		t.Fatal("expected input-count error")
	}
}

func TestEvalUndefinedSignal(t *testing.T) {
	c := New()
	a, b := c.NewSignal(), c.NewSignal() // never marked as inputs
	o := c.And(a, b)
	c.MarkOutput(o)
	if _, err := c.Eval(nil); err == nil {
		t.Fatal("expected undefined-signal error")
	}
}

func TestFullAdderTruthTable(t *testing.T) {
	for m := 0; m < 8; m++ {
		c := New()
		in := c.NewSignals(3)
		c.MarkInput(in...)
		s, carry := c.FullAdder(in[0], in[1], in[2])
		c.MarkOutput(s, carry)
		bits := []bool{m&1 != 0, m&2 != 0, m&4 != 0}
		assign, err := c.Eval(bits)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, b := range bits {
			if b {
				n++
			}
		}
		out := c.OutputBits(assign)
		if out[0] != (n%2 == 1) || out[1] != (n >= 2) {
			t.Fatalf("FullAdder(%v): got %v", bits, out)
		}
	}
}

func TestRippleAdderExhaustive4Bit(t *testing.T) {
	for a := uint64(0); a < 16; a++ {
		for b := uint64(0); b < 16; b++ {
			c := New()
			wa := c.NewSignals(4)
			wb := c.NewSignals(4)
			c.MarkInput(wa...)
			c.MarkInput(wb...)
			sum := c.RippleAdder(wa, wb)
			c.MarkOutput(sum...)
			in := append(UintToBits(a, 4), UintToBits(b, 4)...)
			assign, err := c.Eval(in)
			if err != nil {
				t.Fatal(err)
			}
			if got := WordToUint(assign, sum); got != a+b {
				t.Fatalf("%d+%d = %d", a, b, got)
			}
		}
	}
}

func TestMultiplierExhaustiveSmall(t *testing.T) {
	for a := uint64(0); a < 16; a++ {
		for b := uint64(0); b < 8; b++ {
			c := New()
			wa := c.NewSignals(4)
			wb := c.NewSignals(3)
			c.MarkInput(wa...)
			c.MarkInput(wb...)
			prod := c.Multiplier(wa, wb)
			c.MarkOutput(prod...)
			if len(prod) != 7 {
				t.Fatalf("product width %d, want 7", len(prod))
			}
			in := append(UintToBits(a, 4), UintToBits(b, 3)...)
			assign, err := c.Eval(in)
			if err != nil {
				t.Fatal(err)
			}
			if got := WordToUint(assign, prod); got != a*b {
				t.Fatalf("%d×%d = %d", a, b, got)
			}
		}
	}
}

func TestMultiplierProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		na := 1 + r.Intn(7)
		nb := 1 + r.Intn(7)
		a := uint64(r.Intn(1 << uint(na)))
		b := uint64(r.Intn(1 << uint(nb)))
		c := New()
		wa := c.NewSignals(na)
		wb := c.NewSignals(nb)
		c.MarkInput(wa...)
		c.MarkInput(wb...)
		prod := c.Multiplier(wa, wb)
		if len(prod) != na+nb {
			t.Logf("%d×%d-bit product has %d bits, want %d", na, nb, len(prod), na+nb)
			return false
		}
		in := append(UintToBits(a, na), UintToBits(b, nb)...)
		assign, err := c.Eval(in)
		if err != nil {
			return false
		}
		return WordToUint(assign, prod) == a*b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSubsetSumNetwork(t *testing.T) {
	values := []uint64{3, 5, 6}
	c := New()
	sel, sum := c.SubsetSumNetwork(values, 3)
	c.MarkInput(sel...)
	c.MarkOutput(sum...)
	for m := 0; m < 8; m++ {
		bits := []bool{m&1 != 0, m&2 != 0, m&4 != 0}
		var want uint64
		for j, b := range bits {
			if b {
				want += values[j]
			}
		}
		assign, err := c.Eval(bits)
		if err != nil {
			t.Fatal(err)
		}
		if got := WordToUint(assign, sum); got != want {
			t.Fatalf("subset %v: sum %d, want %d", bits, got, want)
		}
	}
}

func TestSubsetSumWidthBound(t *testing.T) {
	// Sec. VII-B: dim(b) ≤ log2(n-1) + p. Sum width must accommodate
	// n·(2^p - 1).
	values := []uint64{7, 7, 7, 7, 7}
	c := New()
	_, sum := c.SubsetSumNetwork(values, 3)
	maxSum := uint64(35)
	width := len(sum)
	if uint64(1)<<uint(width) <= maxSum {
		t.Fatalf("sum width %d cannot hold %d", width, maxSum)
	}
}

func TestEqualConst(t *testing.T) {
	c := New()
	w := c.NewSignals(3)
	c.MarkInput(w...)
	eq := c.EqualConst(w, 5) // 101
	c.MarkOutput(eq...)
	assign, err := c.Eval([]bool{true, false, true})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range eq {
		if !assign[s] {
			t.Fatalf("eq bit %d false for matching word", i)
		}
	}
	assign, err = c.Eval([]bool{true, true, true})
	if err != nil {
		t.Fatal(err)
	}
	if assign[eq[1]] {
		t.Fatal("eq bit 1 should be false for mismatch")
	}
}

func TestSatisfiedPredicate(t *testing.T) {
	c := New()
	a, b := c.NewSignal(), c.NewSignal()
	c.MarkInput(a, b)
	o := c.Xor(a, b)
	assign, err := c.Eval([]bool{true, false})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Satisfied(assign) {
		t.Fatal("evaluated assignment must satisfy the circuit")
	}
	assign[o] = !assign[o]
	if c.Satisfied(assign) {
		t.Fatal("corrupted assignment must not satisfy the circuit")
	}
}

func TestBitsRoundTrip(t *testing.T) {
	f := func(k uint16) bool {
		return BitsToUint(UintToBits(uint64(k), 16)) == uint64(k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
