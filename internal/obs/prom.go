package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders the snapshot in Prometheus text exposition
// format 0.0.4. Instrument names are prefixed with dmm_ and sanitized;
// counters gain the conventional _total suffix; histograms emit
// cumulative le buckets plus _sum and _count. Output is sorted by name
// for determinism (golden-testable).
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	var sb strings.Builder

	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := promName(n) + "_total"
		fmt.Fprintf(&sb, "# TYPE %s counter\n%s %d\n", m, m, s.Counters[n])
	}

	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := promName(n)
		fmt.Fprintf(&sb, "# TYPE %s gauge\n%s %s\n", m, m, promFloat(s.Gauges[n]))
	}

	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Histograms[n]
		m := promName(n)
		fmt.Fprintf(&sb, "# TYPE %s histogram\n", m)
		cum := int64(0)
		for i, b := range h.Bounds {
			cum += h.Counts[i]
			fmt.Fprintf(&sb, "%s_bucket{le=%q} %d\n", m, promFloat(b), cum)
		}
		fmt.Fprintf(&sb, "%s_bucket{le=\"+Inf\"} %d\n", m, h.Count)
		fmt.Fprintf(&sb, "%s_sum %s\n", m, promFloat(h.Sum))
		fmt.Fprintf(&sb, "%s_count %d\n", m, h.Count)
	}

	_, err := io.WriteString(w, sb.String())
	return err
}

// promName maps a registry name ("steps.accepted") to a Prometheus
// metric name ("dmm_steps_accepted").
func promName(name string) string {
	var sb strings.Builder
	sb.WriteString("dmm_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == ':':
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// promFloat renders a float the way Prometheus expects (+Inf/-Inf/NaN
// spellings; shortest round-trip otherwise).
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
