package solc

import (
	"math/rand"
	"testing"

	"repro/internal/boolcirc"
	"repro/internal/circuit"
	"repro/internal/la"
)

// fuzzPinnedCircuit decodes a byte string into a small boolean circuit
// and a pin map. data[0] picks 1–3 free inputs and 0–2 constants (with
// their values); data[1] picks 0–6 gates, each a 3-byte chunk (op over
// all seven ops, operand a, operand b) over the signals allocated so
// far; then one byte per signal pins it to 0 (b%4 == 0), to 1 (b%4 == 1)
// or leaves it free. Constants may be pinned against their value. The
// unread tail is returned for the state. Missing bytes read as zero.
func fuzzPinnedCircuit(data []byte) (*boolcirc.Circuit, map[boolcirc.Signal]bool, []byte) {
	p := 0
	next := func() byte {
		p++
		if p-1 < len(data) {
			return data[p-1]
		}
		return 0
	}
	head := next()
	bc := boolcirc.New()
	bc.NewSignals(1 + int(head%3))
	for k := 0; k < int(head>>2)%3; k++ {
		bc.Const(head>>(4+k)&1 == 1)
	}
	for g := int(next() % 7); g > 0; g-- {
		op, ai, bi := next(), next(), next()
		n := boolcirc.Signal(bc.NumSignals())
		a, b := boolcirc.Signal(ai)%n, boolcirc.Signal(bi)%n
		switch op % 7 {
		case 0:
			bc.And(a, b)
		case 1:
			bc.Or(a, b)
		case 2:
			bc.Xor(a, b)
		case 3:
			bc.Nand(a, b)
		case 4:
			bc.Nor(a, b)
		case 5:
			bc.Xnor(a, b)
		case 6:
			bc.Not(a)
		}
	}
	pins := make(map[boolcirc.Signal]bool)
	for s := 0; s < bc.NumSignals(); s++ {
		switch next() % 4 {
		case 0:
			pins[boolcirc.Signal(s)] = false
		case 1:
			pins[boolcirc.Signal(s)] = true
		}
	}
	if p > len(data) {
		return bc, pins, nil
	}
	return bc, pins, data[p:]
}

// checkReadOut asserts that the attempts' stop predicate agrees with the
// verification that classifies a stopped attempt: past the input ramp,
// readOut holds iff the decoded assignment passes BC.Satisfied and
// pinsRespected. Before the ramp ends it never holds.
func checkReadOut(t *testing.T, cs *Compiled, x la.Vector) {
	t.Helper()
	eng := cs.circ
	tRise := eng.Params.TRise
	if cs.readOut(eng, tRise, x) {
		t.Fatal("read-out taken at t = TRise")
	}
	tt := 2 * tRise
	assign := cs.decodeWith(eng, tt, x)
	verified := cs.BC.Satisfied(assign) && cs.pinsRespected(assign)
	if got := cs.readOut(eng, tt, x); got != verified {
		t.Fatalf("%v: readOut = %v but decode+verify = %v\ngates %v pins %v constants %v assignment %v voltages %v",
			eng, got, verified, cs.BC.Gates, cs.Pins, cs.BC.Constants(), assign, eng.NodeVoltages(tt, x, nil))
	}
}

// FuzzReadOutAgreesWithVerification drives checkReadOut over random small
// circuits with random pins, with the free-node voltages taken from the
// fuzz bytes (magnitudes up to 2·vc, exact zeros included). So an attempt
// that stops always decodes to a verified assignment. The seed corpus
// (hand-written cases plus 300 pseudo-random strings) runs under plain
// `go test`.
func FuzzReadOutAgreesWithVerification(f *testing.F) {
	f.Add([]byte{1, 1, 2, 0, 1, 3, 3, 1, 200, 60})     // XOR pinned to 1
	f.Add([]byte{16, 1, 0, 0, 2, 3, 3, 3, 1, 60, 200}) // AND with the constant 1, output pinned to 1
	f.Add([]byte{16, 0, 3, 3, 0, 128})                 // constant 1 pinned to 0 (unsatisfiable), a node at 0 V
	// Six gates (NOT, NOT, AND, OR, NOR, XNOR), two pins, two nodes at 0 V.
	f.Add([]byte{2, 6, 6, 0, 0, 6, 3, 0, 0, 0, 3, 1, 1, 2, 4, 2, 5, 5, 6, 1, 0, 2, 3, 1, 2, 2, 2, 2, 2, 0, 1, 128, 128, 7})
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 300; k++ {
		b := make([]byte, 8+rng.Intn(40))
		rng.Read(b)
		f.Add(b)
	}
	p := circuit.Default()
	f.Fuzz(func(t *testing.T, data []byte) {
		bc, pins, rest := fuzzPinnedCircuit(data)
		byteAt := func(i int) byte {
			if len(rest) == 0 {
				return byte(37 * i)
			}
			return rest[i%len(rest)]
		}

		cs := Compile(bc, pins, p)
		nv, _, _ := cs.circ.Counts()
		x := cs.circ.InitialState(rand.New(rand.NewSource(1)))
		for k := 0; k < nv; k++ { // [ v | x | i | s ]: free-node voltages lead
			x[k] = p.Vc * float64(int(byteAt(k))-128) / 64
		}
		checkReadOut(t, cs, x)
	})
}

// TestPinConflictLaunchesNoAttempt: a caller pin that contradicts a
// circuit constant can never verify, so Solve launches no attempt and
// says why at once, instead of integrating every attempt to its horizon.
func TestPinConflictLaunchesNoAttempt(t *testing.T) {
	bc := boolcirc.New()
	a := bc.NewSignal()
	k := bc.Const(false)
	o := bc.Or(a, k)
	cs := Compile(bc, map[boolcirc.Signal]bool{k: true, o: true}, circuit.Default())
	opts := DefaultOptions()
	opts.TEnd = 3
	opts.MaxAttempts = 2
	res, err := cs.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Solved || res.Reason != reasonPinConflict || res.Launched != 0 || res.Attempts != 0 ||
		res.Steps != 0 || res.FEvals != 0 || res.T != 0 || res.WinnerAttempt != -1 {
		t.Fatalf("solved=%v reason=%q launched=%d attempts=%d steps=%d fevals=%d t=%g winner=%d, want an unsolved run with no attempt and reason %q",
			res.Solved, res.Reason, res.Launched, res.Attempts, res.Steps, res.FEvals, res.T, res.WinnerAttempt, reasonPinConflict)
	}
	// The same circuit with consistent pins still integrates.
	cs = Compile(bc, map[boolcirc.Signal]bool{o: true}, circuit.Default())
	if res, err := cs.Solve(opts); err != nil || res.Launched == 0 || res.Steps == 0 {
		t.Fatalf("consistent pins: launched=%d steps=%d err=%v, want attempts that integrate", res.Launched, res.Steps, err)
	}
}
