package main

import (
	"strings"
	"testing"
)

func TestUnsolvedNote(t *testing.T) {
	for _, tc := range []struct {
		n         uint64
		want, not string
	}{
		{n: 47, want: "expected when n is prime (Fig. 13)", not: "not prime"},
		{n: 2021, want: "2021 is not prime, but no verified equilibrium was reached within -attempts 4 × -tend 150", not: "Fig. 13"},
	} {
		got := unsolvedNote(tc.n, "horizon reached", 4, 150)
		if !strings.Contains(got, tc.want) || strings.Contains(got, tc.not) {
			t.Errorf("n=%d: %q, want it to contain %q and not %q", tc.n, got, tc.want, tc.not)
		}
		if !strings.Contains(got, "(horizon reached)") {
			t.Errorf("n=%d: %q omits the solver's reason", tc.n, got)
		}
	}
}
