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
	pins     map[Node]device.RampSource
}

// gateInst is one gate of the circuit: its kind's shared parameter set
// and DCM rows, and the nodes of its (v1, v2, vo) slots. A NOT gate's
// unused v2 slot reads node 0, which its rows weight by 0.
type gateInst struct {
	gate  *solg.Gate
	rows  *dcmRows
	nodes [3]int32
}

// dcmRows is a gate kind's DCM branches flattened into rows: mem holds
// the memristor branches in state order (terminal by terminal, branch by
// branch), res the resistor branches in terminal order. The kernels
// evaluate each row's VCVG level as one fused expression
//
//	l = a1·v1 + a2·v2 + ao·vo + dc
//
// over the gate's three slot voltages.
type dcmRows struct {
	mem, res []dcmRow
}

// dcmRow is one DCM branch of a gate kind: the slot of the terminal it
// hangs off, its VCVG coefficients and, for a memristor, its polarity.
type dcmRow struct {
	slot           int32
	a1, a2, ao, dc float64
	sigma          float64
}

// level evaluates the row's VCVG target voltage from the gate's slot
// voltages.
func (r *dcmRow) level(v *[3]float64) float64 {
	return float64(r.a1*v[0]) + float64(r.a2*v[1]) + float64(r.ao*v[2]) + r.dc
}

// kindRows returns the gate's resistor rows when res is set, else its
// memristor rows.
func (inst *gateInst) kindRows(res bool) []dcmRow {
	if res {
		return inst.rows.res
	}
	return inst.rows.mem
}

// newDCMRows flattens g's branches into rows. The terminals of a NOT
// gate fill slots 0 and 2, and its rows carry a2 = 0, so the unused slot
// contributes exactly nothing.
func newDCMRows(g *solg.Gate) *dcmRows {
	var mem, res []dcmRow
	not := g.Kind == solg.NOT
	for t, dcm := range g.DCMs {
		slot := int32(t)
		if not && t == 1 {
			slot = 2
		}
		for _, br := range dcm.Branches {
			r := dcmRow{slot: slot, a1: br.L.A1, a2: br.L.A2, ao: br.L.Ao, dc: br.L.DC, sigma: br.Sigma}
			if not {
				r.a2 = 0
			}
			if br.Mem {
				mem = append(mem, r)
			} else {
				res = append(res, r)
			}
		}
	}
	return &dcmRows{mem: mem, res: res}
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

// gateSets holds one parameter set and its DCM rows per gate kind and
// Vc, shared by every Builder: solg.New depends on nothing else, and
// neither is written after it is made. The key holds Vc's bits, so a
// NaN Vc finds its entry.
var gateSets struct {
	sync.Mutex
	m map[gateKey]gateInst // nodes unset
}

type gateKey struct {
	kind   solg.Kind
	vcBits uint64
}

// sharedGate returns the (immutable) parameter set and rows of a gate
// kind at the builder's Vc, constructing them once per process.
func (b *Builder) sharedGate(k solg.Kind) gateInst {
	key := gateKey{k, math.Float64bits(b.params.Vc)}
	gateSets.Lock()
	defer gateSets.Unlock()
	inst, ok := gateSets.m[key]
	if !ok {
		g := solg.MustNew(k, b.params.Vc)
		inst = gateInst{gate: g, rows: newDCMRows(g)}
		if gateSets.m == nil {
			gateSets.m = make(map[gateKey]gateInst)
		}
		gateSets.m[key] = inst
	}
	return inst
}

// Grow reserves room for n more gates, so that adding up to n gates
// allocates no gate storage. (slices.Grow would do, but under the race
// detector it also allocates the zeroed slice it appends.)
func (b *Builder) Grow(n int) {
	gates := make([]gateInst, len(b.gates), len(b.gates)+n)
	b.gates = gates[:copy(gates, b.gates)]
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
	b.addInst(b.sharedGate(solg.NOT), in, 0, out)
}

// addInst appends the gate inst with its slot nodes to b.gates.
func (b *Builder) addInst(inst gateInst, in1, in2, out Node) {
	inst.nodes = [3]int32{int32(in1), int32(in2), int32(out)}
	b.gates = append(b.gates, inst)
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

func (b *Builder) checkNodes(nodes ...Node) {
	for _, n := range nodes {
		if int(n) < 0 || int(n) >= b.numNodes {
			panic(fmt.Sprintf("circuit: node %d not allocated", n))
		}
	}
}

// NumGates returns the number of gates added so far.
func (b *Builder) NumGates() int { return len(b.gates) }
