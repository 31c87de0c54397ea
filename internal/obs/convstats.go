package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
)

// ConvStats aggregates convergence times (dynamical time-to-solution of
// solved attempts) across a run's portfolio attempts, for the
// self-averaging analysis of arXiv:2301.08787: end-of-run
// quantiles in the summary table plus the full CCDF in -json output.
// Observe is cold-path (once per solved attempt) and safe for
// concurrent attempts; a nil *ConvStats ignores observations.
type ConvStats struct {
	mu      sync.Mutex
	samples []float64
}

// NewConvStats returns an empty aggregate.
func NewConvStats() *ConvStats { return &ConvStats{} }

// Observe records one solved attempt's convergence time. Non-finite and
// negative times are ignored.
func (c *ConvStats) Observe(t float64) {
	if c == nil || math.IsNaN(t) || math.IsInf(t, 0) || t < 0 {
		return
	}
	c.mu.Lock()
	c.samples = append(c.samples, t)
	c.mu.Unlock()
}

// Count returns the number of recorded samples.
func (c *ConvStats) Count() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.samples)
}

// CCDFPoint is one point of the empirical complementary CDF:
// P = P(T_conv > T).
type CCDFPoint struct {
	T float64 `json:"t"`
	P float64 `json:"p"`
}

// ConvSnapshot is a point-in-time summary of a ConvStats aggregate.
type ConvSnapshot struct {
	Count int     `json:"count"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	// CCDF is the empirical survival function P(T_conv > t), decimated
	// to at most ccdfMaxPoints points (always keeping the extremes).
	CCDF []CCDFPoint `json:"ccdf"`
}

// ccdfMaxPoints bounds the emitted CCDF size so -json output stays
// readable for thousand-seed campaigns.
const ccdfMaxPoints = 64

// Snapshot summarizes the samples recorded so far. It returns nil when
// no attempt has converged (or on a nil receiver), so callers can gate
// the summary line on presence.
func (c *ConvStats) Snapshot() *ConvSnapshot {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	s := append([]float64(nil), c.samples...)
	c.mu.Unlock()
	if len(s) == 0 {
		return nil
	}
	sort.Float64s(s)
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	snap := &ConvSnapshot{
		Count: len(s),
		Min:   s[0],
		Max:   s[len(s)-1],
		Mean:  sum / float64(len(s)),
		P50:   nearestRank(s, 0.50),
		P90:   nearestRank(s, 0.90),
		P99:   nearestRank(s, 0.99),
	}
	// Survival function over the sorted samples: at t = s[i] (the i-th
	// order statistic), P(T > t) = (n-1-i)/n, merging ties at the last
	// equal sample.
	n := len(s)
	pts := make([]CCDFPoint, 0, n)
	for i := 0; i < n; i++ {
		if i+1 < n && s[i+1] == s[i] { //dmmvet:allow floateq — merging exactly equal order statistics; near-ties are distinct CCDF points by design
			continue
		}
		pts = append(pts, CCDFPoint{T: s[i], P: float64(n-1-i) / float64(n)})
	}
	snap.CCDF = decimateCCDF(pts, ccdfMaxPoints)
	return snap
}

// nearestRank returns the nearest-rank quantile of sorted samples.
func nearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// decimateCCDF thins pts to at most max points, always retaining the
// first and last.
func decimateCCDF(pts []CCDFPoint, max int) []CCDFPoint {
	if len(pts) <= max {
		return pts
	}
	out := make([]CCDFPoint, 0, max)
	step := float64(len(pts)-1) / float64(max-1)
	prev := -1
	for i := 0; i < max; i++ {
		j := int(math.Round(float64(i) * step))
		if j <= prev {
			j = prev + 1
		}
		if j >= len(pts) {
			j = len(pts) - 1
		}
		out = append(out, pts[j])
		prev = j
	}
	return out
}

// WriteSummary prints the one-block human summary the cmds emit after a
// run with solved attempts.
func (s *ConvSnapshot) WriteSummary(w io.Writer) error {
	if s == nil {
		return nil
	}
	_, err := fmt.Fprintf(w,
		"convergence time  n=%d  min=%.4g  p50=%.4g  p90=%.4g  p99=%.4g  max=%.4g  mean=%.4g\n",
		s.Count, s.Min, s.P50, s.P90, s.P99, s.Max, s.Mean)
	return err
}
