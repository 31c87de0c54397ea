package experiments

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/boolcirc"
	"repro/internal/core"
	"repro/internal/obs"
)

func TestInformationOverheadReport(t *testing.T) {
	rep := InformationOverhead([]int{6, 8, 10})
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	prev := 0.0
	for _, row := range rep.Rows {
		io, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		if io <= 1 {
			t.Fatalf("information overhead %v, want > 1", io)
		}
		if io < prev {
			t.Fatalf("overhead should not shrink with size: %v after %v", io, prev)
		}
		prev = io
	}
}

func TestRandom3SATShape(t *testing.T) {
	f := boolcirc.Random3SAT(newTestRand(), 6, 18)
	if f.NumVars != 6 || len(f.Clauses) != 18 {
		t.Fatalf("got %d vars, %d clauses", f.NumVars, len(f.Clauses))
	}
	for _, cl := range f.Clauses {
		if len(cl) != 3 {
			t.Fatalf("clause width %d, want 3", len(cl))
		}
		seen := map[int]bool{}
		for _, l := range cl {
			v := int(l)
			if v < 0 {
				v = -v
			}
			if v < 1 || v > 6 {
				t.Fatalf("literal out of range: %d", l)
			}
			if seen[v] {
				t.Fatalf("repeated variable in clause %v", cl)
			}
			seen[v] = true
		}
	}
}

func TestEnergyScalingReport(t *testing.T) {
	if testing.Short() {
		t.Skip("dynamical run")
	}
	cfg := core.DefaultConfig()
	cfg.TEnd = 100
	cfg.MaxAttempts = 2
	rep := EnergyScaling(cfg, []int{4}, 2)
	if len(rep.Rows) != 1 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	e, err := strconv.ParseFloat(rep.Rows[0][4], 64)
	if err != nil {
		t.Fatal(err)
	}
	if e <= 0 {
		t.Fatalf("median energy %v, want > 0", e)
	}
}

func TestSolutionDiversityReport(t *testing.T) {
	if testing.Short() {
		t.Skip("dynamical run")
	}
	cfg := core.DefaultConfig()
	cfg.TEnd = 100
	rep := SolutionDiversity(cfg, 4)
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	d, err := strconv.Atoi(rep.Rows[0][3])
	if err != nil {
		t.Fatal(err)
	}
	if d < 2 {
		t.Fatalf("AND out=0 diversity %d, want >= 2", d)
	}
}

func TestAblationCapacitanceReport(t *testing.T) {
	if testing.Short() {
		t.Skip("dynamical run")
	}
	rep := AblationCapacitance([]float64{2e-2}, 2)
	if rep.Rows[0][1] != "2/2" {
		t.Fatalf("C=2e-2 should converge 2/2: %v", rep.Rows[0])
	}
}

// TestFig8ParallelismInvariant checks that the fig8 report, steps column
// included, renders byte-identical at Parallelism 1 and 4: under the
// default lowest-attempt winner the result counts only the attempts up
// to the winner, whatever the winner cancelled.
func TestFig8ParallelismInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("dynamical run")
	}
	render := func(parallelism int) string {
		cfg := core.DefaultConfig()
		cfg.Parallelism = parallelism
		return Fig8Adder3(cfg, 9, 3).Render()
	}
	seq, par := render(1), render(4)
	if seq != par {
		t.Fatalf("fig8 differs between Parallelism 1 and 4:\n%s\n%s", seq, par)
	}
}

func newTestRand() *rand.Rand { return rand.New(rand.NewSource(5)) }

// TestDynamicalExperimentsUseConfigOptions checks that fig8, sat3 and
// diversity solve with the Config's own options: its telemetry sees
// their attempts, and diversity launches at most MaxAttempts per solve.
func TestDynamicalExperimentsUseConfigOptions(t *testing.T) {
	for _, tc := range []struct {
		name   string
		run    func(core.Config)
		solves int64
	}{
		{"fig8", func(cfg core.Config) { Fig8Adder3(cfg, 9, 1) }, 1},
		{"sat3", func(cfg core.Config) { Sat3(cfg, 4, 8, 1) }, 1},
		{"diversity", func(cfg core.Config) { SolutionDiversity(cfg, 1) }, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.TEnd = 5
			cfg.MaxAttempts = 1
			cfg.Verify = true
			cfg.Telemetry = obs.NewTelemetry()
			tc.run(cfg)
			if n := cfg.Telemetry.AttemptsLaunched.Value(); n < 1 || n > tc.solves {
				t.Fatalf("telemetry saw %d attempts over %d solves of 1 attempt each", n, tc.solves)
			}
		})
	}
}
