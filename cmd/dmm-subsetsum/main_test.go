package main

import (
	"bytes"
	"math"
	"strconv"
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

// FuzzSubsetSumArgs runs the command on up to six values below 2^12,
// drawn two bytes each from raw (a zero value included), and any target,
// at a short horizon. It must not panic and must exit 0, 1 or 2. The
// largest target used to wrap the DP's table size to zero and panic.
func FuzzSubsetSumArgs(f *testing.F) {
	f.Add([]byte{3, 0, 5, 0}, uint64(math.MaxUint64))
	f.Add([]byte{3, 0, 5, 0, 6, 0}, uint64(8))
	f.Add([]byte{3, 0}, uint64(1))
	f.Add([]byte{0xff, 0x0f, 0xff, 0x0f, 1, 0}, uint64(1<<32))
	f.Add([]byte{0, 0, 7, 0}, uint64(7))
	f.Add([]byte{}, uint64(0))
	f.Fuzz(func(t *testing.T, raw []byte, target uint64) {
		var vals []string
		for i := 0; i+1 < len(raw) && len(vals) < 6; i += 2 {
			v := (uint64(raw[i]) | uint64(raw[i+1])<<8) & 0xfff
			vals = append(vals, strconv.FormatUint(v, 10))
		}
		args := []string{"-values", strings.Join(vals, ","), "-target", strconv.FormatUint(target, 10),
			"-tend", "0.01", "-attempts", "1"}
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code < 0 || code > 2 {
			t.Fatalf("%v: exit %d, stdout %q, stderr %q", args, code, stdout.String(), stderr.String())
		}
	})
}

// TestBaselineWithinCap checks which classical cross-check runs: DP for
// a target its tables fit, meet-in-the-middle above that, also when a
// subset sum overflows uint64, and none when the halves would not fit in
// baselineBytes.
func TestBaselineWithinCap(t *testing.T) {
	wide := make([]uint64, 43)
	for i := range wide {
		wide[i] = 1 << 22
	}
	for _, tc := range []struct {
		name     string
		values   []uint64
		target   uint64
		want     string
		sat, ran bool
	}{
		{"small target", []uint64{3, 5, 6}, 8, "DP", true, true},
		{"largest target", []uint64{3, 5}, math.MaxUint64, "meet-in-the-middle", false, true},
		{"43 values", wide, 1 << 30, "", false, false},
		{"sum overflows", []uint64{1 << 63, 1<<63 + 1, 5, 7}, 1 << 40, "meet-in-the-middle", false, true},
		{"sum overflows, wrapped target", []uint64{1 << 63, 1<<63 + 1<<30, 5, 7}, 1 << 30, "meet-in-the-middle", false, true},
		{"sum overflows, reachable", []uint64{1 << 63, 1<<63 + 1, 5, 7}, 1<<63 + 12, "meet-in-the-middle", true, true},
	} {
		name, sat, ran := baseline(tc.values, tc.target)
		if name != tc.want || sat != tc.sat || ran != tc.ran {
			t.Errorf("%s: baseline = (%q, %v, %v), want (%q, %v, %v)", tc.name, name, sat, ran, tc.want, tc.sat, tc.ran)
		}
	}
}
