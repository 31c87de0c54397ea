package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestSingleValueTargets drives the command on one value: 3 reaches only
// the target 3, so -target 1 must exit 2 (unsolved, in agreement with the
// DP baseline) rather than 1, and -target 3 must exit 0.
func TestSingleValueTargets(t *testing.T) {
	for _, tc := range []struct {
		target, want string
		code         int
	}{
		{"1", "no subset can reach it", 2},
		{"3", "self-organized subset: [3]", 0},
	} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-values", "3", "-target", tc.target}, &stdout, &stderr)
		if code != tc.code || !strings.Contains(stdout.String(), tc.want) || !strings.Contains(stdout.String(), "DP agrees") {
			t.Errorf("-values 3 -target %s: exit %d, stdout %q, stderr %q; want exit %d with %q and DP agreement",
				tc.target, code, stdout.String(), stderr.String(), tc.code, tc.want)
		}
	}
}

// TestPositionalArgumentIsAnError: `dmm-subsetsum 3,5,6` used to solve
// the default instance, because flag parsing stops at the first
// positional argument. Any positional argument must now exit 2 with the
// usage.
func TestPositionalArgumentIsAnError(t *testing.T) {
	for _, args := range [][]string{{"3,5,6"}, {"-values", "3,5", "8", "-target", "8"}} {
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		if code != 2 || !strings.Contains(stderr.String(), "unexpected argument") || !strings.Contains(stderr.String(), "-values") {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 naming the argument, then the usage", args, code, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: ran anyway: %q", args, stdout.String())
		}
	}
}
