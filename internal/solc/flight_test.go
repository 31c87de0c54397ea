package solc

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/obs"
)

// TestFlightDumpOnForcedDivergence is the flight-recorder acceptance
// check: a time horizon too short to solve forces every attempt to
// retire unsolved, each retirement dumps its ring as JSONL onto the
// sink, and the dump passes the schema validator.
func TestFlightDumpOnForcedDivergence(t *testing.T) {
	cs := compileProduct(t, 3, 2, 15)
	var sink bytes.Buffer
	tl := obs.NewTelemetry()
	tl.Flight = obs.NewFlightSet(0, 0, &sink)
	tl.Spans = obs.NewSpans()

	opts := ladderOpts(t, 7)
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
	snap := tl.Spans.Snapshot()
	if snap == nil {
		t.Fatal("span profiler recorded nothing")
	}
	for _, ph := range snap.Phases {
		if ph.Count == 0 {
			t.Fatalf("phase %q recorded no intervals", ph.Phase)
		}
	}
	// The rung labels in the dump must come from the configured ladder
	// (h is quantized, so at least one record carries a nonzero rung:
	// h ≈ 1e-3 sits far from rung 0 at h = 1).
	recs := collectRecords(t, &sink)
	nonzero := false
	for _, r := range recs {
		if r.Rung != 0 {
			nonzero = true
			break
		}
	}
	if !nonzero {
		t.Fatal("no record carries a ladder rung label")
	}
}

func collectRecords(t *testing.T, buf *bytes.Buffer) []obs.FlightRecord {
	t.Helper()
	var out []obs.FlightRecord
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	for dec.More() {
		var rec obs.FlightRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("decode flight dump: %v", err)
		}
		out = append(out, rec)
	}
	if len(out) == 0 {
		t.Fatal("no records decoded from flight dump")
	}
	return out
}

// TestFlightSolvedRunDoesNotDump pins the dump condition: solved
// attempts retire their rings without writing post-mortems, and their
// convergence times land in the ConvStats aggregate instead. The span
// profiler rides along: a solved run must charge every phase.
func TestFlightSolvedRunDoesNotDump(t *testing.T) {
	cs := compileProduct(t, 3, 2, 15)
	var sink bytes.Buffer
	tl := obs.NewTelemetry()
	tl.Flight = obs.NewFlightSet(0, 0, &sink)
	tl.Spans = obs.NewSpans()

	opts := ladderOpts(t, 7)
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
	snap := tl.Spans.Snapshot()
	if snap == nil {
		t.Fatal("span profiler recorded nothing")
	}
	for _, ph := range snap.Phases {
		if ph.Count == 0 {
			t.Errorf("phase %q recorded no intervals", ph.Phase)
		}
	}
}
