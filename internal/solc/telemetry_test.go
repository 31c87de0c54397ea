package solc

import (
	"bytes"
	"testing"

	"repro/internal/obs"
)

// TestPortfolioTelemetry races the fixture's restarts with telemetry on and
// checks the contract the CI smoke job enforces end to end: one valid
// JSONL event per attempt lifecycle transition, a final metrics
// snapshot, and lifecycle counters that agree with the Result.
func TestPortfolioTelemetry(t *testing.T) {
	pf := fixturePortfolio()

	var buf bytes.Buffer
	tl := obs.NewTelemetry()
	tl.Tracer = obs.NewTracer(&buf)
	tl.PhysicsEvery = 16 // small instance: sample often enough to exercise the probe

	opts := fixtureOptions(2)
	opts.Telemetry = tl

	res, err := pf.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("portfolio failed to solve: %s", res.Reason)
	}

	snap := tl.EmitSnapshot()
	if err := tl.Tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateJSONL(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("event stream invalid: %v\n%s", err, buf.String())
	}

	launched := snap.Counters["attempts.launched"]
	terminal := snap.Counters["attempts.converged"] +
		snap.Counters["attempts.cancelled"] + snap.Counters["attempts.diverged"]
	if launched != terminal {
		t.Fatalf("lifecycle unbalanced: launched=%d terminal=%d", launched, terminal)
	}
	if launched != int64(res.Launched) {
		t.Fatalf("launched counter %d != Result.Launched %d", launched, res.Launched)
	}
	if snap.Counters["attempts.converged"] < 1 {
		t.Fatal("no converged attempt recorded")
	}
	if snap.Counters["steps.accepted"] == 0 {
		t.Fatal("no accepted steps recorded")
	}
	if snap.Counters["fevals"] == 0 {
		t.Fatal("no function evaluations recorded")
	}
	if h := snap.Histograms["step.size"]; h.Count != snap.Counters["steps.accepted"] {
		t.Fatalf("step.size count %d != steps.accepted %d", h.Count, snap.Counters["steps.accepted"])
	}
	if h := snap.Histograms["attempt.wall_seconds"]; h.Count != launched {
		t.Fatalf("attempt.wall_seconds count %d != launched %d", h.Count, launched)
	}
	if h := snap.Histograms["attempt.conv_time"]; h.Count != snap.Counters["attempts.converged"] {
		t.Fatalf("attempt.conv_time count %d != converged %d", h.Count, snap.Counters["attempts.converged"])
	}
	if snap.Histograms["physics.mem_state"].Count == 0 {
		t.Fatal("physics probe never sampled (mem_state histogram empty)")
	}
	if snap.Gauges["physics.energy"] <= 0 {
		t.Fatalf("dissipated energy %g, want > 0 (IMEX member ran)", snap.Gauges["physics.energy"])
	}
}

// TestTelemetryDoesNotForceSequential pins the concurrency contract:
// unlike Observe, Telemetry leaves Parallelism alone.
func TestTelemetryDoesNotForceSequential(t *testing.T) {
	seq := solveFixture(t, 1)

	opts := fixtureOptions(4)
	opts.Telemetry = obs.NewTelemetry()
	par, err := fixturePortfolio().Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !par.Solved || par.WinnerAttempt != seq.WinnerAttempt {
		t.Fatalf("telemetry changed the deterministic winner: seq=%d par=%d",
			seq.WinnerAttempt, par.WinnerAttempt)
	}
}
