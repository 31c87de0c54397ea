package boolcirc

// Synthesis library: the arithmetic blocks the paper's two SOLC topologies
// are made of — half/full adders and ripple-carry adders (the "2 bit
// adder" / "3 bit adder" blocks of Figs. 8 and 11), the n×m array
// multiplier of the factorization circuit (Fig. 11), and the masked
// accumulation network of the subset-sum circuit (Fig. 14).

// HalfAdder returns (sum, carry) of a+b.
func (c *Circuit) HalfAdder(a, b Signal) (sum, carry Signal) {
	return c.Xor(a, b), c.And(a, b)
}

// FullAdder returns (sum, carry) of a+b+cin.
func (c *Circuit) FullAdder(a, b, cin Signal) (sum, carry Signal) {
	x := c.Xor(a, b)
	sum = c.Xor(x, cin)
	t1 := c.And(a, b)
	t2 := c.And(x, cin)
	carry = c.Or(t1, t2)
	return sum, carry
}

// RippleAdder adds the little-endian bit vectors a and b (equal length)
// and returns the n+1-bit sum (the top bit is the carry out). This is the
// paper's n-bit self-organizing adder block.
func (c *Circuit) RippleAdder(a, b []Signal) []Signal {
	if len(a) != len(b) {
		panic("boolcirc: RippleAdder needs equal widths")
	}
	n := len(a)
	out := make([]Signal, 0, n+1)
	var carry Signal
	for i := 0; i < n; i++ {
		var s Signal
		if i == 0 {
			s, carry = c.HalfAdder(a[i], b[i])
		} else {
			s, carry = c.FullAdder(a[i], b[i], carry)
		}
		out = append(out, s)
	}
	return append(out, carry)
}

// AddWords adds two little-endian words of possibly different widths,
// returning a max(len)+1-bit result. Narrower words are zero-extended
// with constant-0 signals.
func (c *Circuit) AddWords(a, b []Signal) []Signal {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	a = c.extend(a, n)
	b = c.extend(b, n)
	return c.RippleAdder(a, b)
}

func (c *Circuit) extend(w []Signal, n int) []Signal {
	for len(w) < n {
		w = append(w, c.Const(false))
	}
	return w
}

// Multiplier builds the array multiplier computing p = a × b over
// little-endian words, the topology of the factorization SOLC (Fig. 11):
// partial products a_i·b_j feed a cascade of ripple adders. The result has
// len(a)+len(b) bits.
func (c *Circuit) Multiplier(a, b []Signal) []Signal {
	na, nb := len(a), len(b)
	if na == 0 || nb == 0 {
		panic("boolcirc: Multiplier needs nonempty words")
	}
	// Row 0: partial products of b[0].
	acc := make([]Signal, na)
	for i := range a {
		acc[i] = c.And(a[i], b[0])
	}
	for j := 1; j < nb; j++ {
		row := make([]Signal, na)
		for i := range a {
			row[i] = c.And(a[i], b[j])
		}
		// acc(high part) + row, keeping the low bit of acc as final.
		low := acc[:j]
		high := acc[j:]
		sum := c.AddWords(high, row) // len = na+1
		acc = append(append([]Signal{}, low...), sum...)
	}
	// Total width = nb-1 (lows) + na+1 = na+nb. A 1-bit b runs no adder
	// row, so its product's high bit is a constant 0.
	return c.extend(acc, na+nb)
}

// MaskWord gates every bit of the constant value through the selector s:
// the result is value·s, the c_j·q_j term of the subset-sum network
// (Eq. 70). Bits of value that are 0 become constant-0 signals.
func (c *Circuit) MaskWord(s Signal, value uint64, width int) []Signal {
	out := make([]Signal, width)
	for i := 0; i < width; i++ {
		if value&(1<<uint(i)) != 0 {
			// s AND 1 = s; use a buffer via AND with itself to keep the
			// wire distinct is unnecessary — reuse s directly.
			out[i] = s
		} else {
			out[i] = c.Const(false)
		}
	}
	return out
}

// SubsetSumNetwork builds the accumulation network of Fig. 14: selectors
// c_j (one per set element) mask the constant words q_j, which a cascade
// of adders sums into a single word of width p + ceil(log2(n)) bits.
// It returns the selector signals and the sum word.
func (c *Circuit) SubsetSumNetwork(values []uint64, p int) (selectors []Signal, sum []Signal) {
	if len(values) == 0 {
		panic("boolcirc: empty subset-sum instance")
	}
	selectors = make([]Signal, len(values))
	for j := range values {
		selectors[j] = c.NewSignal()
	}
	sum = c.MaskWord(selectors[0], values[0], p)
	for j := 1; j < len(values); j++ {
		w := c.MaskWord(selectors[j], values[j], p)
		sum = c.AddWords(sum, w)
	}
	return selectors, sum
}

// EqualConst constrains (by construction of XNOR gates) the word w to the
// little-endian constant k, returning the per-bit equality signals. The
// SOLC compiler pins these to logic 1; the SAT export adds unit clauses.
func (c *Circuit) EqualConst(w []Signal, k uint64) []Signal {
	out := make([]Signal, len(w))
	for i := range w {
		bit := k&(1<<uint(i)) != 0
		out[i] = c.Xnor(w[i], c.Const(bit))
	}
	return out
}

// WordToUint decodes a little-endian signal word under an assignment.
func WordToUint(a Assignment, w []Signal) uint64 {
	var v uint64
	for i, s := range w {
		if a[s] {
			v |= 1 << uint(i)
		}
	}
	return v
}

// UintToBits expands k into width little-endian bits.
func UintToBits(k uint64, width int) []bool {
	out := make([]bool, width)
	for i := 0; i < width; i++ {
		out[i] = k&(1<<uint(i)) != 0
	}
	return out
}

// BitsToUint packs little-endian bits into an integer.
func BitsToUint(bits []bool) uint64 {
	var v uint64
	for i, b := range bits {
		if b {
			v |= 1 << uint(i)
		}
	}
	return v
}
