package obs

import (
	"bytes"
	"math"
	"testing"
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
