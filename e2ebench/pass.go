package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/boolcirc"
	"repro/internal/circuit"
	"repro/internal/classical"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sat"
	"repro/internal/solc"
)

// problem is an instance after synthesis: the boolean circuit, its pins,
// and the signal words the answer is read from.
type problem struct {
	bc   *boolcirc.Circuit
	pins map[boolcirc.Signal]bool
	p, q []boolcirc.Signal // factor and prime: the factor words
	vars []boolcirc.Signal // sat: one signal per variable
}

// synthesize builds the instance's boolean circuit (the boolcirc layer).
func synthesize(in instance) (*problem, error) {
	if in.kind == kindSAT {
		bc, vars, outs, err := boolcirc.FromCNF(in.cnf)
		if err != nil {
			return nil, fmt.Errorf("synthesize %v: %w", in, err)
		}
		pins := make(map[boolcirc.Signal]bool, len(outs))
		for _, o := range outs {
			pins[o] = true
		}
		return &problem{bc: bc, pins: pins, vars: vars}, nil
	}
	bc, p, q, pins := core.BuildCircuit(in.n, core.BitLen(in.n))
	return &problem{bc: bc, pins: pins, p: p, q: q}, nil
}

// compile maps the circuit onto the capacitive SOLC (the solc layer:
// circuit.Builder.Build plus the sparse symbolic analysis).
func compile(pr *problem) *solc.Portfolio {
	return solc.CompilePortfolio(pr.bc, pr.pins, circuit.Default(),
		[]solc.PortfolioMember{{Mode: solc.ModeCapacitive, Stepper: "imex"}})
}

// solveOptions are the solve settings of one instance: the cmds' sparse
// IMEX defaults, one attempt at a time, lowest verified attempt wins.
func solveOptions(w *workload, in instance, tl *obs.Telemetry) solc.Options {
	opts := solc.DefaultOptions()
	opts.H = 1e-3
	opts.TEnd = w.tEnd
	opts.MaxAttempts = w.attempts
	opts.Seed = in.seed
	opts.Parallelism = 1
	opts.Policy = solc.WinnerLowestAttempt
	opts.Telemetry = tl
	return opts
}

// outcome is the verdict of the correctness gate on one solve.
type outcome int

const (
	// outCorrect: a verified solution, or no claim on a negative control.
	outCorrect outcome = iota
	// outUnsolved: a satisfiable instance left without a claim.
	outUnsolved
	// outWrong: a claimed solution failed the independent re-check.
	outWrong
)

// verify re-checks a solve outside solc: a factor pair must multiply to n,
// an assignment must satisfy the formula, and a prime must be prime with
// its circuit CNF proved unsatisfiable by CDCL, so no claim can be right.
func verify(in instance, pr *problem, res solc.Result) outcome {
	switch in.kind {
	case kindFactor:
		if !res.Solved {
			return outUnsolved
		}
		if !isFactorPair(in.n, pr, res.Assignment) {
			return outWrong
		}
	case kindSAT:
		if !res.Solved {
			return outUnsolved
		}
		if len(res.Assignment) < pr.bc.NumSignals() {
			return outWrong
		}
		assign := make([]bool, in.cnf.NumVars)
		for v, s := range pr.vars {
			assign[v] = res.Assignment[s]
		}
		if !in.cnf.Satisfied(assign) {
			return outWrong
		}
	case kindPrime:
		if res.Solved {
			return outWrong
		}
		if !classical.IsPrime(in.n) || sat.CDCL(pr.bc.ToCNF(pr.pins), 0).Status != sat.Unsatisfiable {
			return outUnsolved
		}
	}
	return outCorrect
}

func isFactorPair(n uint64, pr *problem, a boolcirc.Assignment) bool {
	if len(a) < pr.bc.NumSignals() {
		return false
	}
	p, q := boolcirc.WordToUint(a, pr.p), boolcirc.WordToUint(a, pr.q)
	return p > 1 && q > 1 && p*q == n
}

// counts are the exact per-pass counts: with Parallelism 1 every one of
// them repeats bit for bit on every pass and run of a seed.
type counts struct {
	Steps     int `json:"ode.steps"`
	Attempts  int `json:"solc.attempts"`
	FactorNNZ int `json:"la.factor_nnz"`
	NNZ       int `json:"circuit.nnz"`
	Gates     int `json:"boolcirc.gates"`
	Verified  int `json:"verified"`
}

// passResult is one timed pass over a suite.
type passResult struct {
	wall                         time.Duration
	synth, compile, solve, check time.Duration
	// busy is the wall time of the instances alone: the pass without the
	// calibration samples taken between them.
	busy                     time.Duration
	counts                   counts
	correct, unsolved, wrong int
	phaseNs                  [obs.NumPhases]int64 // traced passes only
}

// runPass synthesizes, compiles, solves and verifies every instance in
// order, after a forced GC that keeps collection out of the timed calls
// and holds the heap, and so the peak RSS, at one instance's footprint
// whatever the collector's pacing. On untraced passes cal samples its
// kernel before every instance and tl and rec are nil; on traced passes
// tl (telemetry with spans) and rec (the benchmark's own spans) are set
// and cal is nil.
func runPass(w *workload, tl *obs.Telemetry, rec *recorder, cal *calibrator) (passResult, error) {
	var pr passResult
	start := time.Now()
	root := rec.open("pass", -1, -1, start)
	for i, in := range w.instances {
		runtime.GC()
		if cal != nil {
			cal.sample()
		}
		t0 := time.Now()
		prob, err := synthesize(in)
		if err != nil {
			return pr, err
		}
		t1 := time.Now()
		pf := compile(prob)
		t2 := time.Now()
		var before *obs.SpansSnapshot
		if rec != nil {
			before = tl.Spans.Snapshot()
		}
		res, err := pf.Solve(solveOptions(w, in, tl))
		if err != nil {
			return pr, fmt.Errorf("solve %v: %w", in, err)
		}
		t3 := time.Now()
		verdict := verify(in, prob, res)
		t4 := time.Now()

		pr.synth += t1.Sub(t0)
		pr.compile += t2.Sub(t1)
		pr.solve += t3.Sub(t2)
		pr.check += t4.Sub(t3)
		pr.busy += t4.Sub(t0)
		eng := pf.Compiled(0).Eng.(*circuit.Circuit)
		_, nnz := eng.NNZ()
		pr.counts.Steps += res.Steps
		pr.counts.Attempts += res.Attempts
		pr.counts.FactorNNZ += eng.FactorNNZ()
		pr.counts.NNZ += nnz
		pr.counts.Gates += len(prob.bc.Gates)
		switch verdict {
		case outCorrect:
			pr.correct++
		case outUnsolved:
			pr.unsolved++
		case outWrong:
			pr.wrong++
		}

		if rec != nil {
			rec.closed("synth", root, i, t0, t1, nil)
			rec.closed("compile", root, i, t1, t2, nil)
			phases := phaseDelta(before, tl.Spans.Snapshot())
			for p, ns := range phases {
				pr.phaseNs[p] += ns
			}
			rec.closed("solve", root, i, t2, t3, phases[:])
			rec.closed("verify", root, i, t3, t4, nil)
		}
	}
	pr.counts.Verified = pr.correct
	end := time.Now()
	pr.wall = end.Sub(start)
	rec.close(root, end)
	return pr, nil
}

// phaseDelta is the per-phase time one solve added to the profiler.
func phaseDelta(before, after *obs.SpansSnapshot) (d [obs.NumPhases]int64) {
	for p := range d {
		d[p] = after.Phases[p].Ns - before.Phases[p].Ns
	}
	return d
}

// wastedSteps reads the attempt events of a traced pass and returns the
// steps of attempts that did not win, and the steps of all attempts.
func wastedSteps(events []byte) (wasted, total int, err error) {
	dec := json.NewDecoder(bytes.NewReader(events))
	for dec.More() {
		var ev obs.Event
		if err := dec.Decode(&ev); err != nil {
			return 0, 0, fmt.Errorf("read attempt events: %w", err)
		}
		switch ev.Ev {
		case obs.EvConverged:
			total += ev.Steps
		case obs.EvDiverged, obs.EvCancelled:
			total += ev.Steps
			wasted += ev.Steps
		}
	}
	return wasted, total, nil
}

// span is one interval the benchmark records around a public call.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"`
	Name     string  `json:"name"`
	Instance int     `json:"instance"`
	StartNs  int64   `json:"start_ns"`
	EndNs    int64   `json:"end_ns"`
	PhasesNs []int64 `json:"phases_ns,omitempty"` // solve spans: the seven step phases, in obs.Phase order
}

// recorder keeps the benchmark's spans in memory; a nil recorder records
// nothing.
type recorder struct {
	epoch time.Time
	spans []span
}

func (r *recorder) open(name string, parent, inst int, at time.Time) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Name: name, Instance: inst,
		StartNs: int64(at.Sub(r.epoch))})
	return len(r.spans) - 1
}

func (r *recorder) close(id int, at time.Time) {
	if r == nil {
		return
	}
	r.spans[id].EndNs = int64(at.Sub(r.epoch))
}

func (r *recorder) closed(name string, parent, inst int, from, to time.Time, phases []int64) {
	id := r.open(name, parent, inst, from)
	r.close(id, to)
	if len(phases) > 0 {
		r.spans[id].PhasesNs = append([]int64(nil), phases...)
	}
}

// selfTimes returns each layer's self time: a span's duration minus what
// its children cover. The seven step phases are the children of the solve
// spans; the solve self time is the driver around them.
func (r *recorder) selfTimes() map[string]int64 {
	self := map[string]int64{}
	for _, s := range r.spans {
		self[s.Name] += s.EndNs - s.StartNs
		if s.Parent >= 0 {
			self[r.spans[s.Parent].Name] -= s.EndNs - s.StartNs
		}
		for p, ns := range s.PhasesNs {
			self[obs.Phase(p).String()] += ns
			self[s.Name] -= ns
		}
	}
	return self
}
