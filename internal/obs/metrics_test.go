package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
)

// TestHistogramBucketEdges pins the bucket rule: bucket i counts
// bounds[i-1] < v ≤ bounds[i], the last slot is the overflow.
func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("edges", []float64{1, 2, 4})
	cases := []struct {
		v    float64
		want int
	}{
		{0.5, 0}, {1, 0}, // exact bound lands in its own bucket
		{1.0000001, 1}, {2, 1},
		{3, 2}, {4, 2},
		{4.1, 3}, {100, 3}, // overflow
		{-5, 0}, // below the first bound still lands in bucket 0
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	snap := r.Snapshot().Histograms["edges"]
	want := []int64{3, 2, 2, 2}
	for i, n := range snap.Counts {
		if n != want[i] {
			t.Fatalf("bucket %d: got %d want %d (counts %v)", i, n, want[i], snap.Counts)
		}
	}
	if snap.Count != int64(len(cases)) {
		t.Fatalf("count = %d, want %d", snap.Count, len(cases))
	}
}

func TestHistogramQuantileAndMean(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q", LinearBuckets(1, 1, 10))
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i%10) + 0.5)
	}
	snap := r.Snapshot().Histograms["q"]
	if got := snap.Quantile(0.5); got != 5 {
		t.Fatalf("p50 = %g, want 5", got)
	}
	if got := snap.Quantile(0.99); got != 10 {
		t.Fatalf("p99 = %g, want 10", got)
	}
	if m := snap.Mean(); math.Abs(m-5.0) > 0.01 {
		t.Fatalf("mean = %g, want ≈5.0", m)
	}
	// Edge semantics (documented on Quantile): empty → NaN (no data);
	// single populated bucket → that bucket's bound for every q, with
	// empty leading buckets skipped; overflow mass → +Inf.
	var empty HistogramSnapshot
	if !math.IsNaN(empty.Quantile(0.5)) {
		t.Fatalf("empty quantile = %g, want NaN", empty.Quantile(0.5))
	}
	if empty.Mean() != 0 {
		t.Fatalf("empty mean = %g, want 0", empty.Mean())
	}
	single := HistogramSnapshot{
		Bounds: []float64{1, 2, 4},
		Counts: []int64{0, 7, 0, 0},
		Count:  7,
		Sum:    10.5,
	}
	for _, q := range []float64{-1, 0, 0.5, 1} {
		if got := single.Quantile(q); got != 2 {
			t.Fatalf("single-bucket q=%g = %g, want bound-clamp to 2", q, got)
		}
	}
	over := HistogramSnapshot{Bounds: []float64{1}, Counts: []int64{0, 3}, Count: 3}
	if got := over.Quantile(0.5); !math.IsInf(got, 1) {
		t.Fatalf("overflow-only q=0.5 = %g, want +Inf", got)
	}
}

// TestConcurrentCounters exercises the atomic instruments from many
// goroutines; run under -race this doubles as the data-race check.
func TestConcurrentCounters(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits")
	g := r.Gauge("acc")
	h := r.Histogram("dist", LinearBuckets(10, 10, 5))
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(0.5)
				h.Observe(float64((w*per + i) % 60))
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := g.Value(); got != workers*per*0.5 {
		t.Fatalf("gauge = %g, want %g", got, float64(workers*per)*0.5)
	}
	if got := h.Count(); got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
}

func TestGaugeDropsNonFinite(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("v")
	g.Set(1.5)
	g.Set(math.NaN())
	g.Set(math.Inf(1))
	g.Add(math.NaN())
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %g, want the last finite value 1.5", got)
	}
	// The snapshot must stay marshalable no matter what was observed.
	if _, err := json.Marshal(r.Snapshot()); err != nil {
		t.Fatalf("snapshot not marshalable: %v", err)
	}
}

func TestRegistryReuse(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("same name must return the same counter")
	}
	h1 := r.Histogram("h", []float64{1, 2})
	h2 := r.Histogram("h", []float64{9, 99}) // bounds ignored on reuse
	if h1 != h2 {
		t.Fatal("same name must return the same histogram")
	}
}

func TestSnapshotSummary(t *testing.T) {
	tl := NewTelemetry()
	tl.Steps.Add(42)
	tl.Energy.Add(1.25)
	tl.StepSize.Observe(1e-3)
	var buf bytes.Buffer
	if err := tl.Registry.Snapshot().WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"steps.accepted", "physics.energy", "step.size", "p99"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

// TestStepObsNilSafe pins the hot-path contract: every hook is a no-op
// on a nil receiver so instrumented code needs no branches.
func TestStepObsNilSafe(t *testing.T) {
	var o *StepObs
	o.Accept(1e-3)
	o.Reject()
	o.SpanEnd(PhaseBookkeep, o.SpanBegin())
	var tl *Telemetry
	if tl.StepObsFor(nil) != nil {
		t.Fatal("nil telemetry must hand out a nil StepObs")
	}
	tl.Emit(Event{Ev: EvLaunched})
	tl.RecordPhysics(0.5, 1, 1, []int32{1})
	if tl.EmitSnapshot() != nil {
		t.Fatal("nil telemetry snapshot must be nil")
	}
}

// TestStepObsZeroAlloc asserts the per-step observation path allocates
// nothing — the property the IMEX benchmark depends on.
func TestStepObsZeroAlloc(t *testing.T) {
	tl := NewTelemetry()
	o := tl.StepObsFor(nil)
	allocs := testing.AllocsPerRun(1000, func() {
		o.Accept(1e-3)
		o.Reject()
	})
	if allocs != 0 {
		t.Fatalf("StepObs hot path allocates %.1f/op, want 0", allocs)
	}
}
