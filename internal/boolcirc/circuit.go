// Package boolcirc provides the boolean-circuit substrate of the
// reproduction: the compact boolean systems f(y) = b of Sec. II are
// expressed as gate graphs built with this package, evaluated directly in
// the DMM's *test mode* (Fig. 1a), compiled onto self-organizing logic
// circuits for *solution mode*, or exported to CNF for the direct-protocol
// SAT baselines.
package boolcirc

import (
	"fmt"
)

// Signal identifies a boolean wire in a circuit.
type Signal int

// Op enumerates gate operations.
type Op int

// Gate operations.
const (
	And Op = iota
	Or
	Xor
	Nand
	Nor
	Xnor
	Not
)

// String returns the conventional name of the operation.
func (o Op) String() string {
	switch o {
	case And:
		return "AND"
	case Or:
		return "OR"
	case Xor:
		return "XOR"
	case Nand:
		return "NAND"
	case Nor:
		return "NOR"
	case Xnor:
		return "XNOR"
	case Not:
		return "NOT"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Eval applies the operation.
func (o Op) Eval(a, b bool) bool {
	switch o {
	case And:
		return a && b
	case Or:
		return a || b
	case Xor:
		return a != b
	case Nand:
		return !(a && b)
	case Nor:
		return !(a || b)
	case Xnor:
		return a == b
	case Not:
		return !a
	}
	panic("boolcirc: unknown op")
}

// Gate is one logic gate. B is ignored for Not.
type Gate struct {
	Op   Op
	A, B Signal
	Out  Signal
}

// Circuit is a combinational boolean circuit. Gates are stored in
// topological order (the builder API guarantees it).
type Circuit struct {
	nSignals int
	Gates    []Gate

	// Inputs and Outputs are the declared primary signals; they drive the
	// DMM test/solution modes and the information-overhead accounting.
	Inputs  []Signal
	Outputs []Signal

	constVal map[Signal]bool
}

// New returns an empty circuit.
func New() *Circuit {
	return &Circuit{constVal: make(map[Signal]bool)}
}

// NewSignal allocates a fresh signal.
func (c *Circuit) NewSignal() Signal {
	s := Signal(c.nSignals)
	c.nSignals++
	return s
}

// NewSignals allocates n fresh signals.
func (c *Circuit) NewSignals(n int) []Signal {
	out := make([]Signal, n)
	for i := range out {
		out[i] = c.NewSignal()
	}
	return out
}

// NumSignals returns the number of allocated signals.
func (c *Circuit) NumSignals() int { return c.nSignals }

// Const returns a signal carrying the constant v.
func (c *Circuit) Const(v bool) Signal {
	s := c.NewSignal()
	c.constVal[s] = v
	return s
}

// Constants returns the constant-signal map (signal -> value).
func (c *Circuit) Constants() map[Signal]bool {
	out := make(map[Signal]bool, len(c.constVal))
	for k, v := range c.constVal {
		out[k] = v
	}
	return out
}

// MarkInput declares signals as primary inputs.
func (c *Circuit) MarkInput(sigs ...Signal) { c.Inputs = append(c.Inputs, sigs...) }

// MarkOutput declares signals as primary outputs.
func (c *Circuit) MarkOutput(sigs ...Signal) { c.Outputs = append(c.Outputs, sigs...) }

// gate appends a two-input gate and returns its output signal.
func (c *Circuit) gate(op Op, a, b Signal) Signal {
	out := c.NewSignal()
	c.Gates = append(c.Gates, Gate{Op: op, A: a, B: b, Out: out})
	return out
}

// And returns a∧b.
func (c *Circuit) And(a, b Signal) Signal { return c.gate(And, a, b) }

// Or returns a∨b.
func (c *Circuit) Or(a, b Signal) Signal { return c.gate(Or, a, b) }

// Xor returns a⊕b.
func (c *Circuit) Xor(a, b Signal) Signal { return c.gate(Xor, a, b) }

// Nand returns ¬(a∧b).
func (c *Circuit) Nand(a, b Signal) Signal { return c.gate(Nand, a, b) }

// Nor returns ¬(a∨b).
func (c *Circuit) Nor(a, b Signal) Signal { return c.gate(Nor, a, b) }

// Xnor returns a≡b.
func (c *Circuit) Xnor(a, b Signal) Signal { return c.gate(Xnor, a, b) }

// Not returns ¬a.
func (c *Circuit) Not(a Signal) Signal {
	out := c.NewSignal()
	c.Gates = append(c.Gates, Gate{Op: Not, A: a, Out: out})
	return out
}

// Assignment maps every signal to a value during evaluation.
type Assignment []bool

// Eval evaluates the circuit given values for the primary inputs (in the
// order of c.Inputs) and returns the full signal assignment. This is the
// DMM test mode δ = δ_ζ ∘ ... ∘ δ_α of Sec. III-C.
func (c *Circuit) Eval(inputs []bool) (Assignment, error) {
	if len(inputs) != len(c.Inputs) {
		return nil, fmt.Errorf("boolcirc: %d input values for %d inputs", len(inputs), len(c.Inputs))
	}
	assign := make(Assignment, c.nSignals)
	defined := make([]bool, c.nSignals)
	for s, v := range c.constVal {
		assign[s] = v
		defined[s] = true
	}
	for i, s := range c.Inputs {
		assign[s] = inputs[i]
		defined[s] = true
	}
	for _, g := range c.Gates {
		if !defined[g.A] || (g.Op != Not && !defined[g.B]) {
			return nil, fmt.Errorf("boolcirc: gate %v reads undefined signal", g)
		}
		var v bool
		if g.Op == Not {
			v = !assign[g.A]
		} else {
			v = g.Op.Eval(assign[g.A], assign[g.B])
		}
		assign[g.Out] = v
		defined[g.Out] = true
	}
	for _, s := range c.Outputs {
		if !defined[s] {
			return nil, fmt.Errorf("boolcirc: output %d undefined", s)
		}
	}
	return assign, nil
}

// OutputBits extracts the declared outputs from a full assignment.
func (c *Circuit) OutputBits(a Assignment) []bool {
	out := make([]bool, len(c.Outputs))
	for i, s := range c.Outputs {
		out[i] = a[s]
	}
	return out
}

// Satisfied reports whether a full assignment (every signal valued)
// satisfies every gate relation and constant. It is the verification
// predicate used on SOLC solutions.
func (c *Circuit) Satisfied(a Assignment) bool {
	if len(a) < c.nSignals {
		return false
	}
	for s, v := range c.constVal {
		if a[s] != v {
			return false
		}
	}
	for _, g := range c.Gates {
		var want bool
		if g.Op == Not {
			want = !a[g.A]
		} else {
			want = g.Op.Eval(a[g.A], a[g.B])
		}
		if a[g.Out] != want {
			return false
		}
	}
	return true
}
