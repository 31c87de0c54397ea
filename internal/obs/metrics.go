// Package obs is the unified telemetry layer of the solver stack: a
// stdlib-only metrics registry (atomic counters, gauges and fixed-bucket
// histograms, snapshotable as JSON), a structured JSONL event tracer for
// the attempt lifecycle of the parallel restart portfolio, phase spans,
// flight-recorder rings and convergence-time statistics. Every output
// goes to a file or to stdout; the cmds' flags that request them live in
// the subpackage cmdobs, so linking the solver links no
// flag or runtime/pprof.
//
// The paper's evidence is dynamical — convergence-time distributions
// across restarts, dissipated energy, voltage trajectories — so the
// instruments are designed around distributions rather than single
// numbers, and the per-step observation path is zero-allocation so the
// layer can stay enabled in production runs.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	name string
	v    atomic.Int64
}

// Name returns the registry name.
func (c *Counter) Name() string { return c.name }

// Inc adds one.
//
//dmmvet:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds d (d must be non-negative; counters only grow).
//
//dmmvet:hotpath
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic last-value-wins float64 instrument with an
// additive mode for accumulated quantities (dissipated energy).
type Gauge struct {
	name string
	bits atomic.Uint64
}

// Name returns the registry name.
func (g *Gauge) Name() string { return g.name }

// Set stores v. Non-finite values are dropped so the JSON snapshot stays
// marshalable; the last finite observation wins.
//
//dmmvet:hotpath
func (g *Gauge) Set(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add atomically adds v (compare-and-swap loop; contention is expected to
// be per-attempt, not per-step). Non-finite increments are dropped.
//
//dmmvet:hotpath
func (g *Gauge) Add(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram safe for concurrent observation.
// Bucket i counts observations v with bounds[i-1] < v ≤ bounds[i]; the
// final bucket is the overflow (> bounds[len-1]). Observe is
// allocation-free: a short bound scan plus atomic adds.
type Histogram struct {
	name   string
	bounds []float64 // strictly increasing upper bounds
	counts []atomic.Int64
	count  atomic.Int64
	sum    Gauge
}

// Name returns the registry name.
func (h *Histogram) Name() string { return h.name }

// Observe records one value.
//
//dmmvet:hotpath
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n observations of the same value (the physics probes
// fold whole per-sample histograms in through bucket midpoints).
//
//dmmvet:hotpath
func (h *Histogram) ObserveN(v float64, n int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(n)
	h.count.Add(n)
	h.sum.Add(v * float64(n))
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// LinearBuckets returns n upper bounds start, start+width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = start + float64(i)*width
	}
	return b
}

// ExpBuckets returns n upper bounds start, start·factor, start·factor², ...
func ExpBuckets(start, factor float64, n int) []float64 {
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// Registry names and holds the instruments of one run. Construction is
// mutex-guarded; the returned instruments themselves are lock-free.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use (bounds are ignored for an existing
// histogram).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{
			name:   name,
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Int64, len(bounds)+1),
		}
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time JSON-marshalable copy of every instrument.
// Concurrent observers may land between instrument reads; each instrument
// is internally consistent.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	// Spans carries the phase-span breakdown when span profiling was
	// enabled for the run (attached by Telemetry.EmitSnapshot).
	Spans *SpansSnapshot `json:"spans,omitempty"`
	// Conv carries the convergence-time aggregate when at least one
	// attempt converged (attached by Telemetry.EmitSnapshot).
	Conv *ConvSnapshot `json:"conv,omitempty"`
}

// HistogramSnapshot is one histogram's state: Counts[i] pairs with upper
// bound Bounds[i]; the final entry of Counts is the overflow bucket.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Mean returns Sum/Count (0 when empty).
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile returns the upper bound of the bucket at which the cumulative
// count reaches q·Count. Edge semantics, pinned by test:
//
//   - Empty histogram: NaN (there is no data; 0 would be a plausible but
//     wrong bound for instruments whose range excludes 0).
//   - q ≤ 0 (or any q landing before the first populated bucket): the
//     upper bound of the first *populated* bucket — empty leading
//     buckets are skipped, so a single-bucket histogram reports that
//     bucket's bound for every q rather than the lowest bound.
//   - Mass in the overflow bucket (or q ≥ 1 with overflow occupied):
//     +Inf, the overflow bucket's conceptual upper bound.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 {
		return math.NaN()
	}
	target := q * float64(h.Count)
	cum := int64(0)
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		cum += n
		if float64(cum) >= target {
			if i < len(h.Bounds) {
				return h.Bounds[i]
			}
			return math.Inf(1)
		}
	}
	return math.Inf(1)
}

// Snapshot copies every instrument's current state.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]int64, len(h.counts)),
			Count:  h.count.Load(),
			Sum:    h.sum.Value(),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		s.Histograms[name] = hs
	}
	return s
}

// MarshalJSONIndent renders the snapshot as indented JSON.
func (s *Snapshot) MarshalJSONIndent() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// WriteSummary renders the snapshot as the human-readable table the cmds
// print after a telemetry-enabled run.
func (s *Snapshot) WriteSummary(w io.Writer) error {
	var sb strings.Builder
	sb.WriteString("telemetry summary\n")
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) > 0 {
		sb.WriteString("  counters:\n")
		for _, n := range names {
			fmt.Fprintf(&sb, "    %-28s %d\n", n, s.Counters[n])
		}
	}
	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) > 0 {
		sb.WriteString("  gauges:\n")
		for _, n := range names {
			fmt.Fprintf(&sb, "    %-28s %.6g\n", n, s.Gauges[n])
		}
	}
	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) > 0 {
		fmt.Fprintf(&sb, "  histograms:%17s %10s %10s %10s %10s\n", "count", "mean", "p50", "p90", "p99")
		for _, n := range names {
			h := s.Histograms[n]
			fmt.Fprintf(&sb, "    %-24s %10d %10.4g %10.4g %10.4g %10.4g\n",
				n, h.Count, h.Mean(), h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99))
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}
