package experiments

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestTableIReport(t *testing.T) {
	rep := TableI()
	if len(rep.Rows) == 0 {
		t.Fatal("empty Table I")
	}
	for _, n := range rep.Notes {
		if strings.Contains(n, "VIOLATED") {
			t.Fatalf("gate contract violated: %s", n)
		}
	}
	// Every 3-terminal gate contributes 3 DCMs of 4-5 branches.
	if len(rep.Rows) < 7*2*3 {
		t.Fatalf("suspiciously few rows: %d", len(rep.Rows))
	}
	out := rep.Render()
	if !strings.Contains(out, "tableI") || !strings.Contains(out, "AND") {
		t.Fatal("render missing content")
	}
}

func TestTableIIReport(t *testing.T) {
	rep := TableII()
	want := map[string]string{"Ron": "0.01", "alpha": "60", "imax": "20"}
	found := 0
	for _, row := range rep.Rows {
		if v, ok := want[row[0]]; ok && row[1] == v {
			found++
		}
	}
	if found != len(want) {
		t.Fatalf("paper column wrong, matched %d/%d pins", found, len(want))
	}
}

func TestFig4Report(t *testing.T) {
	rep := Fig4()
	if len(rep.Rows) != 8 {
		t.Fatalf("want 8 configurations, got %d", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		correct := row[3] == "true"
		strong, _ := strconv.Atoi(row[7])
		if correct && strong != 0 {
			t.Fatalf("correct config with strong branches: %v", row)
		}
		if !correct && strong == 0 {
			t.Fatalf("incorrect config without correction: %v", row)
		}
	}
}

func TestFig7Report(t *testing.T) {
	rep := Fig7(41)
	if len(rep.Rows) != 41 {
		t.Fatalf("want 41 samples, got %d", len(rep.Rows))
	}
	// The middle sample is v=0 with f=0.
	mid := rep.Rows[20]
	if mid[1] != "0" {
		t.Fatalf("f(0) = %s, want 0", mid[1])
	}
}

func TestFig9Report(t *testing.T) {
	rep := Fig9(11)
	last := rep.Rows[len(rep.Rows)-1]
	for k := 1; k <= 3; k++ {
		if !strings.HasPrefix(last[k], "1.0000") {
			t.Fatalf("θ̃(1) column %d = %s, want 1", k, last[k])
		}
	}
}

func TestFig10Report(t *testing.T) {
	rep := Fig10()
	if len(rep.Rows) != 3 {
		t.Fatalf("want 3 regimes, got %d", len(rep.Rows))
	}
	// Hold regime: three equilibria; drive and retreat: one each.
	if cnt := strings.Count(rep.Rows[1][2], "("); cnt != 3 {
		t.Fatalf("hold regime has %d equilibria, want 3", cnt)
	}
	if cnt := strings.Count(rep.Rows[0][2], "("); cnt != 1 {
		t.Fatalf("drive regime has %d equilibria, want 1", cnt)
	}
}

func TestFig11TopologyScaling(t *testing.T) {
	rep := Fig11Topology(16)
	if len(rep.Rows) < 3 {
		t.Fatal("need at least 3 sizes")
	}
	// gates/nn² must stay within a constant band (quadratic scaling).
	var ratios []float64
	for _, row := range rep.Rows {
		r, err := strconv.ParseFloat(row[5], 64)
		if err != nil {
			t.Fatal(err)
		}
		ratios = append(ratios, r)
	}
	lo, hi := ratios[0], ratios[0]
	for _, r := range ratios[1:] {
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	if hi > 4*lo {
		t.Fatalf("gates/nn² spans [%v, %v]; not a constant band", lo, hi)
	}
}

func TestFig14TopologyScaling(t *testing.T) {
	rep := Fig14Topology(9, 9)
	if len(rep.Rows) < 4 {
		t.Fatal("need several (n,p) points")
	}
	for _, row := range rep.Rows {
		r, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			t.Fatal(err)
		}
		if r <= 0 || r > 30 {
			t.Fatalf("gates/(p·n) = %v out of the linear band", r)
		}
	}
}

func TestSemiprimeForBits(t *testing.T) {
	for _, nn := range []int{6, 8, 10, 12} {
		n := semiprimeForBits(nn)
		if n == 0 {
			t.Fatalf("no semiprime found for %d bits", nn)
		}
		if core.BitLen(n) != nn {
			t.Fatalf("semiprime %d has %d bits, want %d", n, core.BitLen(n), nn)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median(nil); m != 0 {
		t.Fatal("median of empty should be 0")
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v, want 2", m)
	}
}

func TestFig12AndFig13(t *testing.T) {
	if testing.Short() {
		t.Skip("dynamical run")
	}
	cfg := core.DefaultConfig()
	cfg.TEnd = 100
	cfg.MaxAttempts = 4
	rep := Fig12Factorization(cfg, []uint64{35})
	if len(rep.Rows) != 1 {
		t.Fatal("want one row")
	}
	if rep.Rows[0][2] != "true" {
		t.Fatalf("35 not solved: %v", rep.Rows[0])
	}
	// Fig 13: prime input must NOT converge (short horizon keeps it fast).
	cfg.TEnd = 8
	cfg.MaxAttempts = 1
	rep = Fig13Prime(cfg, 47)
	if rep.Rows[0][1] != "false" {
		t.Fatalf("prime input converged?! %v", rep.Rows[0])
	}
}

func TestFig15SubsetSumRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("dynamical run")
	}
	cfg := core.DefaultConfig()
	cfg.TEnd = 100
	cfg.MaxAttempts = 4
	rep := Fig15SubsetSum(cfg, []SubsetSumInstance{{Values: []uint64{3, 5, 6}, Target: 8}})
	if rep.Rows[0][2] != "true" {
		t.Fatalf("instance not solved: %v", rep.Rows[0])
	}
}

// TestStepSizeSweepColumns runs a one-cell hsweep and checks it reports
// the predicted LC bound and the ceiling the driver ramps to, and
// verifies the 4-bit factor instances at the default ceiling.
func TestStepSizeSweepColumns(t *testing.T) {
	if testing.Short() {
		t.Skip("dynamical run")
	}
	rep := StepSizeSweep([]float64{2e-2}, []float64{0.0099}, 2)
	if len(rep.Rows) != 1 {
		t.Fatalf("want one row, got %d", len(rep.Rows))
	}
	row := rep.Rows[0]
	if row[2] != "0.0141" || row[3] != "0.0099" {
		t.Fatalf("bound/ceiling columns %q/%q, want 0.0141/0.0099", row[2], row[3])
	}
	if row[4] != "2/2" || row[5] != "0" {
		t.Fatalf("verified %q failed %q, want 2/2 and 0", row[4], row[5])
	}
}
