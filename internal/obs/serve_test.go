package obs

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/par"
)

// TestWritePrometheusGolden pins the exposition format byte-for-byte on
// a fixed registry: sorted names, dmm_ prefix, _total counters,
// cumulative le buckets with +Inf, _sum and _count.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("steps.accepted").Add(42)
	r.Counter("attempts.launched").Add(3)
	r.Gauge("physics.max_dvdt").Set(1.5)
	h := r.Histogram("step.size", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.005)
	h.Observe(0.005)
	h.Observe(2)

	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden := `# TYPE dmm_attempts_launched_total counter
dmm_attempts_launched_total 3
# TYPE dmm_steps_accepted_total counter
dmm_steps_accepted_total 42
# TYPE dmm_physics_max_dvdt gauge
dmm_physics_max_dvdt 1.5
# TYPE dmm_step_size histogram
dmm_step_size_bucket{le="0.001"} 1
dmm_step_size_bucket{le="0.01"} 3
dmm_step_size_bucket{le="+Inf"} 4
dmm_step_size_sum 2.0105
dmm_step_size_count 4
`
	if got := buf.String(); got != golden {
		t.Fatalf("prometheus rendering drifted:\n--- got ---\n%s--- want ---\n%s", got, golden)
	}
}

func TestPromNameAndFloat(t *testing.T) {
	if got := promName("steps.accepted"); got != "dmm_steps_accepted" {
		t.Fatalf("promName = %q", got)
	}
	if got := promName("a-b c"); got != "dmm_a_b_c" {
		t.Fatalf("promName = %q", got)
	}
	if got := promFloat(1.5); got != "1.5" {
		t.Fatalf("promFloat(1.5) = %q", got)
	}
	if got := promFloat(math.Inf(1)); got != "+Inf" {
		t.Fatalf("promFloat(+Inf) = %q", got)
	}
	if got := promFloat(math.NaN()); got != "NaN" {
		t.Fatalf("promFloat(NaN) = %q", got)
	}
}

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
	tl := NewTelemetry()
	tl.Spans = NewSpans()
	tl.Flight = NewFlightSet(8, 4, nil)
	tl.Steps.Add(7)
	tl.Spans.record(PhaseSolve, 1000)
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
	if !strings.Contains(body, `"phase": "solve"`) {
		t.Fatalf("/debug/phases missing solve phase:\n%s", body)
	}

	code, body, hdr = get(t, base+"/debug/flight")
	if code != http.StatusOK || hdr.Get("Content-Type") != "application/jsonl" {
		t.Fatalf("/debug/flight = %d %q", code, hdr.Get("Content-Type"))
	}
	if err := ValidateFlightJSONL(strings.NewReader(body)); err != nil {
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
	tl := NewTelemetry()
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
	tl := NewTelemetry()
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
		s, err := Serve("127.0.0.1:0", NewTelemetry())
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
	tl := NewTelemetry()
	tl.Spans = NewSpans()
	tl.Flight = NewFlightSet(64, 4, nil)
	fl := tl.Flight.Attempt(0)
	obs := tl.StepObsFor(fl)

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
		tok := obs.SpanBegin()
		obs.Accept(1e-3)
		obs.Refactor()
		obs.SpanEnd(PhaseBookkeep, tok)
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
