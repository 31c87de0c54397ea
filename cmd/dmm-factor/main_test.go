package main

import (
	"bytes"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestUnsolvedNote(t *testing.T) {
	for _, tc := range []struct {
		n         uint64
		want, not string
	}{
		{n: 47, want: "expected when n is prime (Fig. 13)", not: "not prime"},
		{n: 1007, want: "1007 is not prime, but no verified equilibrium was reached within -attempts 4 × -tend 150", not: "Fig. 13"},
		// The 2-bit × 1-bit words of a 3-bit n hold products up to 3;
		// an odd width's narrow word misses balanced pairs: 25 = 5 × 5
		// on 4 × 2 bits, 2021 = 43 × 47 on 10 × 5 bits, and a 63-bit
		// product of two primes above 2^31 on 62 × 31 bits.
		{n: 4, want: "4 is not prime, but no factor pair of it fits the 2-bit × 1-bit words, so no budget can solve it", not: "-attempts"},
		{n: 6, want: "6 is not prime, but no factor pair of it fits the 2-bit × 1-bit words, so no budget can solve it", not: "-attempts"},
		{n: 25, want: "no factor pair of it fits the 4-bit × 2-bit words", not: "-attempts"},
		{n: 2021, want: "no factor pair of it fits the 10-bit × 5-bit words", not: "-attempts"},
		{n: 2147483659 * 2147483693, want: "no factor pair of it fits the 62-bit × 31-bit words", not: "-attempts"},
		{n: 35, want: "35 is not prime, but no verified equilibrium was reached", not: "fits"},
		{n: 4294967291 * 4294967279, want: "within -attempts", not: "fits"}, // (2^32 − 5)·(2^32 − 17)
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

// TestConflictingPinsExitTwo: n = 4…7 pin the 2×1-bit multiplier's
// constant-0 high product bit to 1, so the solve launches no attempt,
// says why, and the command still exits 2.
func TestConflictingPinsExitTwo(t *testing.T) {
	for _, n := range []string{"5", "6"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-n", n, "-tend", "4", "-attempts", "1"}, &stdout, &stderr)
		if code != 2 || !strings.Contains(stdout.String(), "(a pin contradicts a circuit constant") {
			t.Errorf("-n %s: exit %d, stdout %q, stderr %q; want exit 2 naming the pin conflict", n, code, stdout.String(), stderr.String())
		}
	}
}

// TestFinishErrorFailsTheRun: a heap profile that cannot be written used
// to be reported on stderr while the command still exited 0 (solved) or
// 2 (unsolved). A failed Finish must now fail the run with status 1.
func TestFinishErrorFailsTheRun(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "missing", "x.prof")
	for _, args := range [][]string{
		{"-n", "15"},
		{"-n", "2021", "-tend", "0.5", "-attempts", "1"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(append(args, "-memprofile", prof), &stdout, &stderr)
		if code != 1 || !strings.Contains(stderr.String(), "x.prof") {
			t.Errorf("%v: exit %d, stderr %q; want exit 1 naming the profile", args, code, stderr.String())
		}
	}
}

// TestFlightDumpValidates: -telemetry-validate re-reads the -flight dump
// of an unsolved run against the record schema, next to the event
// stream, and the run keeps its unsolved status.
func TestFlightDumpValidates(t *testing.T) {
	dir := t.TempDir()
	flight := filepath.Join(dir, "flight.jsonl")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-n", "2021", "-tend", "0.5", "-attempts", "1",
		"-flight", flight, "-telemetry", filepath.Join(dir, "events.jsonl"), "-telemetry-validate"}, &stdout, &stderr)
	if code != 2 || !strings.Contains(stdout.String(), "flight: "+flight+" validates against the record schema") {
		t.Errorf("exit %d, stdout %q, stderr %q; want exit 2 and the flight dump validated", code, stdout.String(), stderr.String())
	}
}

// TestNonFiniteHorizonIsAnError: -tend NaN used to reach the driver as an
// unbounded horizon and never return; it must now fail promptly with a
// non-zero status and say why.
func TestNonFiniteHorizonIsAnError(t *testing.T) {
	for _, tend := range []string{"NaN", "+Inf"} {
		var stdout, stderr bytes.Buffer
		done := make(chan int, 1)
		go func() { done <- run([]string{"-n", "47", "-tend", tend, "-attempts", "1"}, &stdout, &stderr) }()
		select {
		case code := <-done:
			if code == 0 || !strings.Contains(stderr.String(), "TEnd") {
				t.Errorf("-tend %s: exit %d, stderr %q; want a non-zero exit naming TEnd", tend, code, stderr.String())
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("-tend %s: dmm-factor still running after 10s", tend)
		}
	}
}

// TestPositionalArgumentIsAnError: `dmm-factor 15` used to factor the
// default 35, because flag parsing stops at the first positional
// argument. Any positional argument must now exit 2 with the usage.
func TestPositionalArgumentIsAnError(t *testing.T) {
	for _, args := range [][]string{{"15"}, {"-n", "15", "15", "-tend", "5"}} {
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		if code != 2 || !strings.Contains(stderr.String(), `unexpected argument "15"`) || !strings.Contains(stderr.String(), "-attempts") {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 naming the argument, then the usage", args, code, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: ran anyway: %q", args, stdout.String())
		}
	}
}

// FuzzFactorArgs runs the command on n below 2^10 at a short horizon. It
// must not panic, must exit 1 exactly when n < 4 (too small to factor),
// and must otherwise exit 0 (solved) or 2 (unsolved). For n = 4…7 the
// multiplier's 1-bit word used to yield a product one bit short, so the
// solver pinned only the low bits and decoded a wrong factorization.
func FuzzFactorArgs(f *testing.F) {
	for _, n := range []uint16{0, 3, 4, 5, 6, 7, 15, 35, 1023} {
		f.Add(n)
	}
	f.Fuzz(func(t *testing.T, n uint16) {
		n %= 1 << 10
		args := []string{"-n", strconv.FormatUint(uint64(n), 10), "-tend", "4", "-attempts", "1"}
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		if want1 := n < 4; (code == 1) != want1 || code < 0 || code > 2 {
			t.Fatalf("%v: exit %d, stdout %q, stderr %q", args, code, stdout.String(), stderr.String())
		}
	})
}
