package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRandomInstanceIs3SAT: -random-vars 2 used to build two-literal
// clauses and -random-vars 0 empty ones; a random instance too small for
// 3-SAT, or with no clauses, must exit 2 before building anything.
func TestRandomInstanceIs3SAT(t *testing.T) {
	for _, args := range [][]string{
		{"-random-vars", "2"},
		{"-random-vars", "0"},
		{"-random-vars", "-1"},
		{"-random-clauses", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || !strings.Contains(stderr.String(), "-random-vars >= 3 and -random-clauses >= 1") {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 naming the bounds", args, code, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: built an instance: %q", args, stdout.String())
		}
	}
}

// TestSmallestRandomInstance solves the smallest random instance the
// bounds admit and checks it against the DPLL baseline.
func TestSmallestRandomInstance(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-random-vars", "3", "-random-clauses", "1", "-tend", "50"}, &stdout, &stderr)
	out := stdout.String()
	if code != 0 || !strings.Contains(out, "formula: 3 variables, 1 clauses") || !strings.Contains(out, "SOLC: SAT") {
		t.Fatalf("exit %d, stdout %q, stderr %q; want a solved 3-variable clause", code, out, stderr.String())
	}
}

// TestPositionalArgumentIsAnError: `dmm-sat foo.cnf` used to solve a
// random formula, and `dmm-sat foo.cnf -tend 5` to drop -tend as well,
// because flag parsing stops at the first positional argument. Any
// positional argument must now exit 2 with the usage.
func TestPositionalArgumentIsAnError(t *testing.T) {
	for _, args := range [][]string{{"foo.cnf"}, {"foo.cnf", "-tend", "5"}} {
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		if code != 2 || !strings.Contains(stderr.String(), `unexpected argument "foo.cnf"`) || !strings.Contains(stderr.String(), "-random-vars") {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 naming the argument, then the usage", args, code, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: ran anyway: %q", args, stdout.String())
		}
	}
}
