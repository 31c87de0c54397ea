package repro

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/circuit"
	"repro/internal/solc"
)

// TestCompileAllocations bounds what one solc.Compile allocates on each
// circuit of compileCases. A compile allocates the arrays its solves keep
// (gates, stamp plan, CSR pattern, symbolic structure) and nothing else:
// no per-branch arrays, no triplet list, no sorted index copies, no
// numeric arrays on the symbolic template, and its ordering and bucket
// scratch comes from a pool; the gates, each with its three slot nodes,
// fill one array sized from the gate count, and share one parameter set
// and one set of DCM rows per kind and Vc across compiles. Each budget is the measured figure plus under 3.1% of the
// bytes and 5 objects; the compile that built all of the above allocated
// 61.8 KB and 140 objects (factor), 82.7 KB and 150 (sat), and 907 KB and
// 622 (11bit).
func TestCompileAllocations(t *testing.T) {
	budget := map[string]struct{ bytes, objects float64 }{
		"factor": {18_200, 29},  // measures 17,704 B and 24 objects
		"sat":    {26_500, 35},  // 25,728 B and 30
		"11bit":  {247_000, 39}, // 240,080 B and 34
	}
	for _, tc := range compileCases(t) {
		// The first compile fills the scratch pool; the least of a few
		// more discards allocations by the runtime itself.
		solc.Compile(tc.bc, tc.pins, circuit.Default())
		bytes, objects := math.Inf(1), math.Inf(1)
		for rep := 0; rep < 5; rep++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			solc.Compile(tc.bc, tc.pins, circuit.Default())
			runtime.ReadMemStats(&m1)
			bytes = math.Min(bytes, float64(m1.TotalAlloc-m0.TotalAlloc))
			objects = math.Min(objects, float64(m1.Mallocs-m0.Mallocs))
		}
		b := budget[tc.name]
		t.Logf("%s: %.0f B, %.0f objects (budget %.0f B, %.0f)", tc.name, bytes, objects, b.bytes, b.objects)
		if bytes > b.bytes || objects > b.objects {
			t.Errorf("%s: a compile allocates %.0f B and %.0f objects, want at most %.0f B and %.0f",
				tc.name, bytes, objects, b.bytes, b.objects)
		}
	}
}
