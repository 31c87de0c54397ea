package circuit

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/device"
	"repro/internal/solg"
)

// Node identifies a circuit node (a set of electrically joined gate
// terminals).
type Node int

// Builder accumulates gates, sources and nodes and produces a Circuit.
type Builder struct {
	params   Params
	numNodes int
	gates    []gateInst
	terms    []Node // every gate's terminals back to back; each gateInst.nodes is a window of it
	pins     map[Node]device.RampSource
}

type gateInst struct {
	gate  *solg.Gate
	nodes []Node // one per terminal (inputs..., output)
}

// NewBuilder returns an empty builder with the given parameters.
func NewBuilder(p Params) *Builder {
	return &Builder{
		params: p,
		pins:   make(map[Node]device.RampSource),
	}
}

// Node allocates a fresh circuit node.
func (b *Builder) Node() Node {
	n := Node(b.numNodes)
	b.numNodes++
	return n
}

// Nodes allocates n fresh nodes.
func (b *Builder) Nodes(n int) []Node {
	out := make([]Node, n)
	for i := range out {
		out[i] = b.Node()
	}
	return out
}

// gateSets holds one parameter set per gate kind and Vc, shared by every
// Builder: solg.New depends on nothing else, and a Gate is never written
// after it is made. The key holds Vc's bits, so a NaN Vc finds its entry.
var gateSets struct {
	sync.Mutex
	m map[gateKey]*solg.Gate
}

type gateKey struct {
	kind   solg.Kind
	vcBits uint64
}

// sharedGate returns the (immutable) parameter set for a gate kind at the
// builder's Vc, constructing it once per process.
func (b *Builder) sharedGate(k solg.Kind) *solg.Gate {
	key := gateKey{k, math.Float64bits(b.params.Vc)}
	gateSets.Lock()
	defer gateSets.Unlock()
	g, ok := gateSets.m[key]
	if !ok {
		g = solg.MustNew(k, b.params.Vc)
		if gateSets.m == nil {
			gateSets.m = make(map[gateKey]*solg.Gate)
		}
		gateSets.m[key] = g
	}
	return g
}

// Grow reserves room for n more gates, so that adding up to n gates
// allocates no gate or terminal storage. (slices.Grow would do, but under
// the race detector it also allocates the zeroed slice it appends.)
func (b *Builder) Grow(n int) {
	gates := make([]gateInst, len(b.gates), len(b.gates)+n)
	b.gates = gates[:copy(gates, b.gates)]
	terms := make([]Node, len(b.terms), len(b.terms)+3*n)
	b.terms = terms[:copy(terms, b.terms)]
}

// AddGate attaches a 3-terminal self-organizing gate between the nodes
// (in1, in2, out).
func (b *Builder) AddGate(k solg.Kind, in1, in2, out Node) {
	if k.Terminals() != 3 {
		panic(fmt.Sprintf("circuit: AddGate with %v (use AddNot)", k))
	}
	b.checkNodes(in1, in2, out)
	b.addInst(b.sharedGate(k), in1, in2, out)
}

// AddNot attaches a self-organizing NOT gate between in and out.
func (b *Builder) AddNot(in, out Node) {
	b.checkNodes(in, out)
	b.addInst(b.sharedGate(solg.NOT), in, out)
}

// addInst appends the gate's terminals to b.terms and the gate, whose
// nodes window those terminals, to b.gates. A terms append that
// reallocates leaves earlier windows on the old array, which stays valid:
// a window is never written after it is made.
func (b *Builder) addInst(g *solg.Gate, nodes ...Node) {
	start := len(b.terms)
	b.terms = append(b.terms, nodes...)
	end := len(b.terms)
	b.gates = append(b.gates, gateInst{gate: g, nodes: b.terms[start:end:end]})
}

// PinBit connects a ramped DC generator imposing the logic value bit on
// the node (the control unit's input injection, Sec. III-C solution mode).
// A pinned node carries no VCDCG and is not a state variable.
func (b *Builder) PinBit(n Node, bit bool) {
	v := -b.params.Vc
	if bit {
		v = b.params.Vc
	}
	b.pins[n] = device.RampSource{Target: v, TRise: b.params.TRise}
}

// PinVoltage pins a node to an arbitrary target voltage.
func (b *Builder) PinVoltage(n Node, v float64) {
	b.pins[n] = device.RampSource{Target: v, TRise: b.params.TRise}
}

func (b *Builder) checkNodes(nodes ...Node) {
	for _, n := range nodes {
		if int(n) < 0 || int(n) >= b.numNodes {
			panic(fmt.Sprintf("circuit: node %d not allocated", n))
		}
	}
}

// NumGates returns the number of gates added so far.
func (b *Builder) NumGates() int { return len(b.gates) }

// NumNodes returns the number of allocated nodes.
func (b *Builder) NumNodes() int { return b.numNodes }
