package cmdobs

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/par"
)

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestServeEndpoints(t *testing.T) {
	tl := obs.NewTelemetry()
	tl.Spans = obs.NewSpans()
	tl.Flight = obs.NewFlightSet(8, 4, nil)
	tl.Steps.Add(7)
	tl.Spans.End(obs.PhaseSolve, tl.Spans.Begin())
	fl := tl.Flight.Attempt(0)
	fl.Record(1e-3)

	s, err := Serve("127.0.0.1:0", tl)
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + s.Addr()

	code, body, hdr := get(t, base+"/healthz")
	if code != http.StatusOK || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	code, body, hdr = get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("/metrics content type = %q", ct)
	}
	if !strings.Contains(body, "dmm_steps_accepted_total 7") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}

	code, body, hdr = get(t, base+"/debug/phases")
	if code != http.StatusOK || hdr.Get("Content-Type") != "application/json" {
		t.Fatalf("/debug/phases = %d %q", code, hdr.Get("Content-Type"))
	}
	// Every phase is listed whether or not it ran, so check the count.
	var phases obs.SpansSnapshot
	if err := json.Unmarshal([]byte(body), &phases); err != nil {
		t.Fatalf("/debug/phases: %v", err)
	}
	solved := false
	for _, ph := range phases.Phases {
		solved = solved || ph.Phase == "solve" && ph.Count == 1
	}
	if !solved {
		t.Fatalf("/debug/phases does not count the one solve span:\n%s", body)
	}

	code, body, hdr = get(t, base+"/debug/flight")
	if code != http.StatusOK || hdr.Get("Content-Type") != "application/jsonl" {
		t.Fatalf("/debug/flight = %d %q", code, hdr.Get("Content-Type"))
	}
	if err := obs.ValidateFlightJSONL(strings.NewReader(body)); err != nil {
		t.Fatalf("/debug/flight payload invalid: %v", err)
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	par.Join()
}

// TestServeDisabledSubsystems pins the 404s when span profiling or the
// flight recorder are off (nil on the bundle).
func TestServeDisabledSubsystems(t *testing.T) {
	tl := obs.NewTelemetry()
	s, err := Serve("127.0.0.1:0", tl)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		s.Shutdown(context.Background())
		par.Join()
	}()
	base := "http://" + s.Addr()
	if code, _, _ := get(t, base+"/debug/phases"); code != http.StatusNotFound {
		t.Fatalf("/debug/phases without spans = %d, want 404", code)
	}
	if code, _, _ := get(t, base+"/debug/flight"); code != http.StatusNotFound {
		t.Fatalf("/debug/flight without recorder = %d, want 404", code)
	}
}

// TestHealthzDuringDrain verifies the graceful-shutdown sequencing:
// /healthz flips to 503 as soon as draining starts, before the listener
// closes, so load balancers stop routing ahead of the close.
func TestHealthzDuringDrain(t *testing.T) {
	tl := obs.NewTelemetry()
	s, err := Serve("127.0.0.1:0", tl)
	if err != nil {
		t.Fatal(err)
	}
	// Flip the drain flag exactly as Shutdown's first action does, probe
	// while the listener is still accepting, then finish the shutdown.
	s.draining.Store(true)
	code, body, _ := get(t, "http://"+s.Addr()+"/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("/healthz during drain = %d %q, want 503 draining", code, body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	par.Join()
	if _, err := http.Get("http://" + s.Addr() + "/healthz"); err == nil {
		t.Fatal("listener still accepting after Shutdown returned")
	}
}

// TestShutdownJoinsServeGoroutine pins Shutdown's last step: it returns
// only after the accept goroutine has exited, so s.done is already
// closed when it returns — callers need no par.Join to know the server
// is gone. Without the join, the goroutine usually, but not always,
// loses the race to Shutdown's return, so the check runs several rounds.
func TestShutdownJoinsServeGoroutine(t *testing.T) {
	for round := 0; round < 10; round++ {
		s, err := Serve("127.0.0.1:0", obs.NewTelemetry())
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
		select {
		case <-s.done:
		default:
			t.Fatalf("round %d: Shutdown returned before the serve goroutine exited", round)
		}
	}
	par.Join()
}

// TestConcurrentScrapeWhileStepping races /metrics, /debug/phases and
// /debug/flight scrapes against a hot stepping loop; under -race this is
// the no-stop-the-world guarantee of the exposition path.
func TestConcurrentScrapeWhileStepping(t *testing.T) {
	tl := obs.NewTelemetry()
	tl.Spans = obs.NewSpans()
	tl.Flight = obs.NewFlightSet(64, 4, nil)
	fl := tl.Flight.Attempt(0)
	so := tl.StepObsFor(fl)

	s, err := Serve("127.0.0.1:0", tl)
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + s.Addr()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, path := range []string{"/metrics", "/debug/phases", "/debug/flight"} {
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(url)
				if err != nil {
					t.Errorf("GET %s: %v", url, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(base + path)
	}
	for i := 0; i < 20_000; i++ {
		tok := so.SpanBegin()
		so.Accept(1e-3)
		so.SpanEnd(obs.PhaseBookkeep, tok)
	}
	close(done)
	wg.Wait()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	par.Join()

	// The scrape path must not have perturbed the instruments.
	if got := tl.Steps.Value(); got != 20_000 {
		t.Fatalf("steps = %d, want 20000", got)
	}
	if fl.Len() == 0 {
		t.Fatal("flight ring empty after stepping")
	}
}
