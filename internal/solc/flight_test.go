package solc

import (
	"bytes"
	"testing"

	"repro/internal/boolcirc"
	"repro/internal/circuit"
	"repro/internal/obs"
)

// compileProduct builds the factorization instance for n with the given
// factor word widths, pinned to the product's bits. pBits=3, qBits=2 is
// the shape core.Factorizer assigns a 4-bit product such as 15 = 3 × 5.
func compileProduct(t *testing.T, pBits, qBits int, n uint64) *Compiled {
	t.Helper()
	bc := boolcirc.New()
	p := bc.NewSignals(pBits)
	q := bc.NewSignals(qBits)
	prod := bc.Multiplier(p, q)
	pins := map[boolcirc.Signal]bool{}
	for i, s := range prod {
		pins[s] = n&(1<<uint(i)) != 0
	}
	return Compile(bc, pins, circuit.Default())
}

// flightOpts returns the default solver options at seed 7, on which the
// n=15 instance solves on attempt 0 at t* ≈ 8.7.
func flightOpts() Options {
	opts := DefaultOptions()
	opts.Seed = 7
	return opts
}

// requirePhasesCharged fails unless every span phase with a producer
// recorded intervals; PhaseRefine has none.
func requirePhasesCharged(t *testing.T, tl *obs.Telemetry) {
	t.Helper()
	snap := tl.Spans.Snapshot()
	if snap == nil {
		t.Fatal("span profiler recorded nothing")
	}
	for _, ph := range snap.Phases {
		if ph.Count == 0 && ph.Phase != obs.PhaseRefine.String() {
			t.Errorf("phase %q recorded no intervals", ph.Phase)
		}
	}
}

// TestFlightDumpOnForcedDivergence is the flight-recorder acceptance
// check: a time horizon too short to solve forces every attempt to
// retire unsolved, each retirement dumps its ring as JSONL onto the
// sink, and the dump passes the schema validator.
func TestFlightDumpOnForcedDivergence(t *testing.T) {
	cs := compileProduct(t, 3, 2, 15)
	var sink bytes.Buffer
	tl := obs.NewTelemetry()
	tl.Flight = obs.NewFlightSet(&sink)
	tl.Spans = obs.NewSpans()

	opts := flightOpts()
	opts.TEnd = 0.5 // far below t* for this instance: forced non-convergence
	opts.MaxAttempts = 2
	opts.Telemetry = tl

	res, err := cs.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Solved {
		t.Fatal("test premise broken: instance solved before the forced horizon")
	}
	if err := tl.Flight.Err(); err != nil {
		t.Fatalf("flight sink error: %v", err)
	}
	if tl.Flight.Dumped() == 0 || sink.Len() == 0 {
		t.Fatal("unsolved attempts produced no flight dump")
	}
	if err := obs.ValidateFlightJSONL(bytes.NewReader(sink.Bytes())); err != nil {
		t.Fatalf("flight dump fails schema validation: %v\n%s", err, sink.String())
	}

	// The span profiler ran through the same attempts: the solver phases
	// must all carry intervals.
	requirePhasesCharged(t, tl)
}

// TestFlightSolvedRunDoesNotDump pins the dump condition: solved
// attempts retire their rings without writing post-mortems, and their
// convergence times land in the ConvStats aggregate instead. The span
// profiler rides along: a solved run must charge every phase.
func TestFlightSolvedRunDoesNotDump(t *testing.T) {
	cs := compileProduct(t, 3, 2, 15)
	var sink bytes.Buffer
	tl := obs.NewTelemetry()
	tl.Flight = obs.NewFlightSet(&sink)
	tl.Spans = obs.NewSpans()

	opts := flightOpts()
	opts.MaxAttempts = 1
	opts.Telemetry = tl

	res, err := cs.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("not solved: %s", res.Reason)
	}
	if tl.Flight.Dumped() != 0 || sink.Len() != 0 {
		t.Fatalf("solved attempt dumped %d flight records", tl.Flight.Dumped())
	}
	conv := tl.Conv.Snapshot()
	if conv == nil || conv.Count != 1 {
		t.Fatalf("ConvStats = %+v, want exactly the winner's convergence time", conv)
	}
	if conv.Min != res.T {
		t.Fatalf("ConvStats min %g != winner time %g", conv.Min, res.T)
	}
	requirePhasesCharged(t, tl)
}
