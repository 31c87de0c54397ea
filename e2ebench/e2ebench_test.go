package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"

	"repro/internal/boolcirc"
	"repro/internal/core"
	"repro/internal/sat"
	"repro/internal/solc"
)

func suiteText(t *testing.T, name string, seed int64) []string {
	t.Helper()
	w, err := newWorkload(name, seed, 16)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, in := range w.instances {
		out = append(out, in.String())
	}
	return out
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The suite and its restart seeds derive from the workload seed alone.
func TestSuitesAreSeeded(t *testing.T) {
	for _, name := range workloadNames {
		a, b, c := suiteText(t, name, 7), suiteText(t, name, 7), suiteText(t, name, 8)
		if len(a) == 0 {
			t.Fatalf("%s: empty suite", name)
		}
		if !equal(a, b) {
			t.Errorf("%s: seed 7 generated two different suites", name)
		}
		if equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated the same suite", name)
		}
	}
}

// A claimed solution that does not check out is outWrong; the genuine
// one it was forged from is outCorrect.
func TestGateRejectsForgedAssignments(t *testing.T) {
	t.Run("factor", func(t *testing.T) {
		in := instance{kind: kindFactor, n: 15}
		pr, err := synthesize(in)
		if err != nil {
			t.Fatal(err)
		}
		sol := sat.CDCL(pr.bc.ToCNF(pr.pins), 0)
		if sol.Status != sat.Satisfiable {
			t.Fatal("15 has no factor pair on its multiplier")
		}
		good := boolcirc.Assignment(sol.Assignment)
		if got := verify(in, pr, solc.Result{Solved: true, Assignment: good}); got != outCorrect {
			t.Fatalf("genuine factor pair: got outcome %d", got)
		}
		forged := append(boolcirc.Assignment(nil), good...)
		forged[pr.p[0]] = !forged[pr.p[0]]
		if got := verify(in, pr, solc.Result{Solved: true, Assignment: forged}); got != outWrong {
			t.Fatalf("forged factor pair: got outcome %d, want outWrong", got)
		}
		if got := verify(in, pr, solc.Result{}); got != outUnsolved {
			t.Fatalf("no claim on a satisfiable product: got outcome %d, want outUnsolved", got)
		}
	})
	t.Run("sat", func(t *testing.T) {
		in := instance{kind: kindSAT, cnf: boolcirc.CNF{NumVars: 2, Clauses: []boolcirc.Clause{{1, 2}, {-1, 2}}}}
		pr, err := synthesize(in)
		if err != nil {
			t.Fatal(err)
		}
		claim := func(x1, x2 bool) outcome {
			a := make(boolcirc.Assignment, pr.bc.NumSignals())
			a[pr.vars[0]], a[pr.vars[1]] = x1, x2
			return verify(in, pr, solc.Result{Solved: true, Assignment: a})
		}
		if got := claim(true, true); got != outCorrect {
			t.Fatalf("satisfying assignment: got outcome %d", got)
		}
		if got := claim(true, false); got != outWrong {
			t.Fatalf("forged assignment: got outcome %d, want outWrong", got)
		}
	})
	t.Run("prime", func(t *testing.T) {
		in := instance{kind: kindPrime, n: 131}
		pr, err := synthesize(in)
		if err != nil {
			t.Fatal(err)
		}
		if got := verify(in, pr, solc.Result{}); got != outCorrect {
			t.Fatalf("no claim on a prime: got outcome %d", got)
		}
		a := make(boolcirc.Assignment, pr.bc.NumSignals())
		if got := verify(in, pr, solc.Result{Solved: true, Assignment: a}); got != outWrong {
			t.Fatalf("claim on a prime: got outcome %d, want outWrong", got)
		}
		// A composite passed off as a prime is not a correct negative.
		in.n = 143
		bc, p, q, pins := core.BuildCircuit(in.n, core.BitLen(in.n))
		if got := verify(in, &problem{bc: bc, pins: pins, p: p, q: q}, solc.Result{}); got != outUnsolved {
			t.Fatalf("no claim on composite 143: got outcome %d, want outUnsolved", got)
		}
	})
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// The metrics declared here are the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloadNames[i])
		}
	}
	check := func(kind string, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s [%s], benchmark %s [%s]", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// A tiny-suite run of every workload prints every metric with its unit,
// passes the correctness gate, and its traced layers add up to the pass.
func TestTinySuitesPrintEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("solves every workload")
	}
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: name, seed: 3, trace: trace, scale: 64, setupReps: 1}
			res, err := bench(cfg, io.Discard, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d", name, trace, res.Correct, res.Attempted)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, d.name, m, d.unit)
				}
			}
			if trace {
				if f := res.Metrics["trace.layer_sum_frac"].Value; f < 0.95 || f > 1.05 {
					t.Errorf("%s: layer self times sum to %.3f of the traced pass", name, f)
				}
			}
		}
	}
}
