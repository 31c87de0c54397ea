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
