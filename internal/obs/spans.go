package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"time"
)

// Phase identifies one section of the IMEX step hot loop for the span
// profiler. The enum is fixed so Spans can keep per-phase accumulators in
// flat arrays with no per-call naming or map work.
type Phase uint8

// Step phases, in hot-loop order.
const (
	// PhaseCondFill: the memristor conductance fill plus the pinned
	// nodes' voltages at t+h.
	PhaseCondFill Phase = iota
	// PhaseStamp: matrix-value and right-hand-side assembly through the
	// stamp plan.
	PhaseStamp
	// PhaseFactor: the refactor decision plus numeric refactorization of
	// the shifted voltage system.
	PhaseFactor
	// PhaseSolve: permuted triangular solves.
	PhaseSolve
	// PhaseRefine has no producer and always reads 0; it stays so span
	// snapshots keep the shape their readers expect.
	PhaseRefine
	// PhaseMemAdvance: the solved free voltages into the node view,
	// explicit slow-state updates (memristors, VCDCG currents and
	// controls), the dissipation tally, and the voltage commit.
	PhaseMemAdvance
	// PhaseBookkeep: accept/reject bookkeeping outside the stepper —
	// stats, state clamping, physics probes, and the convergence check.
	PhaseBookkeep

	// NumPhases sizes per-phase arrays.
	NumPhases
)

var phaseNames = [NumPhases]string{
	PhaseCondFill:   "conductance-fill",
	PhaseStamp:      "stamp",
	PhaseFactor:     "classify/refactor",
	PhaseSolve:      "solve",
	PhaseRefine:     "refine",
	PhaseMemAdvance: "memristor-advance",
	PhaseBookkeep:   "bookkeeping",
}

// String names the phase.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// spanEpoch anchors span tokens: a token is the int64 monotonic
// nanosecond offset from this process-wide epoch, so Begin/Lap/End stay
// allocation-free (no time.Time values cross the API).
var spanEpoch = time.Now()

// spanNow returns the current monotonic offset from spanEpoch.
//
//dmmvet:hotpath
func spanNow() int64 { return int64(time.Since(spanEpoch)) }

// spanBoundsNs are the shared per-phase histogram bucket upper bounds in
// nanoseconds (the final bucket is the overflow). Exponential ×4 rungs
// from 250 ns span the sub-microsecond bookkeeping laps up to the
// millisecond-scale refactorizations.
var spanBoundsNs = [...]int64{250, 1_000, 4_000, 16_000, 64_000, 256_000, 1_024_000}

// spanBuckets is the per-phase histogram width (bounds + overflow).
const spanBuckets = len(spanBoundsNs) + 1

// Spans is the zero-allocation phase-span profiler: per-phase nanosecond
// totals, interval counts, and fixed-bucket interval histograms, all
// atomic so one Spans can be shared by every racing attempt of a run. A
// nil *Spans disables profiling — every method is nil-receiver safe and
// costs one nil check — so instrumented hot loops need no spans-enabled
// branch.
//
// Usage is lap-style: tok := sp.Begin() opens an interval; sp.Lap(p, tok)
// charges the time since tok to phase p and re-opens at now; sp.End(p,
// tok) charges and closes. Code that calls into a self-timing callee
// (la.SparseLU with its own Spans hook) laps before the call and Begins
// fresh after it, so no interval is ever charged twice.
type Spans struct {
	ns    [NumPhases]atomic.Int64
	count [NumPhases]atomic.Int64
	hist  [NumPhases][spanBuckets]atomic.Int64
}

// NewSpans returns an empty profiler.
func NewSpans() *Spans { return &Spans{} }

// Begin opens an interval and returns its token (0 on a nil receiver).
//
//dmmvet:hotpath
func (sp *Spans) Begin() int64 {
	if sp == nil {
		return 0
	}
	return spanNow()
}

// Lap charges the time since tok to phase p and returns a fresh token
// opened at now.
//
//dmmvet:hotpath
func (sp *Spans) Lap(p Phase, tok int64) int64 {
	if sp == nil {
		return 0
	}
	now := spanNow()
	sp.record(p, now-tok)
	return now
}

// End charges the time since tok to phase p and closes the interval.
//
//dmmvet:hotpath
func (sp *Spans) End(p Phase, tok int64) {
	if sp == nil {
		return
	}
	sp.record(p, spanNow()-tok)
}

//dmmvet:hotpath
func (sp *Spans) record(p Phase, d int64) {
	if d < 0 {
		d = 0
	}
	sp.ns[p].Add(d)
	sp.count[p].Add(1)
	i := 0
	for i < len(spanBoundsNs) && d > spanBoundsNs[i] {
		i++
	}
	sp.hist[p][i].Add(1)
}

// SpanPhase is one phase's accumulated state in a SpansSnapshot.
type SpanPhase struct {
	Phase string  `json:"phase"`
	Ns    int64   `json:"ns"`
	Count int64   `json:"count"`
	Hist  []int64 `json:"hist"` // interval counts per BoundsNs bucket + overflow
}

// SpansSnapshot is a point-in-time copy of a Spans profiler, ordered by
// phase enum (hot-loop order) for deterministic rendering.
type SpansSnapshot struct {
	BoundsNs []int64     `json:"bounds_ns"`
	Phases   []SpanPhase `json:"phases"`
	TotalNs  int64       `json:"total_ns"`
}

// Snapshot copies the current per-phase state (nil for a nil receiver).
func (sp *Spans) Snapshot() *SpansSnapshot {
	if sp == nil {
		return nil
	}
	s := &SpansSnapshot{
		BoundsNs: append([]int64(nil), spanBoundsNs[:]...),
		Phases:   make([]SpanPhase, NumPhases),
	}
	for p := Phase(0); p < NumPhases; p++ {
		ph := SpanPhase{
			Phase: p.String(),
			Ns:    sp.ns[p].Load(),
			Count: sp.count[p].Load(),
			Hist:  make([]int64, spanBuckets),
		}
		for i := range ph.Hist {
			ph.Hist[i] = sp.hist[p][i].Load()
		}
		s.Phases[p] = ph
		s.TotalNs += ph.Ns
	}
	return s
}

// PhaseNs returns the accumulated nanoseconds of the named phase (0 when
// absent).
func (s *SpansSnapshot) PhaseNs(name string) int64 {
	for _, ph := range s.Phases {
		if ph.Phase == name {
			return ph.Ns
		}
	}
	return 0
}

// MarshalJSONIndent renders the snapshot as indented JSON.
func (s *SpansSnapshot) MarshalJSONIndent() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// WriteTable renders the per-phase breakdown as the human-readable table
// the cmds print after a spans-enabled run.
func (s *SpansSnapshot) WriteTable(w io.Writer) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "phase breakdown %22s %7s %12s %12s\n", "total", "share", "intervals", "ns/interval")
	for _, ph := range s.Phases {
		share := 0.0
		if s.TotalNs > 0 {
			share = 100 * float64(ph.Ns) / float64(s.TotalNs)
		}
		perOp := 0.0
		if ph.Count > 0 {
			perOp = float64(ph.Ns) / float64(ph.Count)
		}
		fmt.Fprintf(&sb, "  %-20s %14s %6.1f%% %12d %12.0f\n",
			ph.Phase, fmtNs(ph.Ns), share, ph.Count, perOp)
	}
	fmt.Fprintf(&sb, "  %-20s %14s\n", "total", fmtNs(s.TotalNs))
	_, err := io.WriteString(w, sb.String())
	return err
}

func fmtNs(ns int64) string {
	switch {
	case ns >= 1_000_000_000:
		return fmt.Sprintf("%.3fs", float64(ns)/1e9)
	case ns >= 1_000_000:
		return fmt.Sprintf("%.3fms", float64(ns)/1e6)
	case ns >= 1_000:
		return fmt.Sprintf("%.3fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
