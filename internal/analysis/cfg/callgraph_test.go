package cfg_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/cfg"
)

const cgSrcB = `package b

func Helper() int { return 1 }

func Spin() {
	for {
	}
}

func Unused() {}
`

const cgSrcA = `package a

import "cgtest/b"

type T struct{}

func (t T) M() int { return b.Helper() }

func Run(f func()) {
	f()
	go func() {
		b.Spin()
	}()
}

func Main() {
	var t T
	t.M()
	Run(b.Unused)
}
`

// loadCallGraphFixture type-checks the two-package fixture through the
// Loader's registry (package a imports package b by its fixture path).
func loadCallGraphFixture(t *testing.T) *cfg.CallGraph {
	t.Helper()
	dir := t.TempDir()
	write := func(name, src string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	loader := analysis.NewLoader()
	pkgB, err := loader.Check("cgtest/b", dir, []string{write("b.go", cgSrcB)})
	if err != nil {
		t.Fatal(err)
	}
	pkgA, err := loader.Check("cgtest/a", dir, []string{write("a.go", cgSrcA)})
	if err != nil {
		t.Fatal(err)
	}
	return cfg.BuildCallGraph([]*analysis.Package{pkgA, pkgB})
}

// TestCallGraphDumpGolden pins the graph shape: cross-package static
// edges resolve by FullName, calls inside a spawned literal are
// attributed to the enclosing declaration (Run -> b.Spin), and neither a
// call through a function value (f() in Run) nor passing a function as
// an argument (Run(b.Unused)) creates an edge.
func TestCallGraphDumpGolden(t *testing.T) {
	cg := loadCallGraphFixture(t)
	want := `callgraph (6 functions):
  (cgtest/a.T).M -> cgtest/b.Helper
  cgtest/a.Main -> (cgtest/a.T).M, cgtest/a.Run
  cgtest/a.Run -> cgtest/b.Spin
  cgtest/b.Helper
  cgtest/b.Spin
  cgtest/b.Unused
`
	if got := cg.Dump(); got != want {
		t.Errorf("callgraph dump mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestCallGraphReachable: reachability crosses packages and spawned
// literals, and does not leak through argument references.
func TestCallGraphReachable(t *testing.T) {
	cg := loadCallGraphFixture(t)
	reach := cg.Reachable("cgtest/a.Main")
	for _, name := range []string{"cgtest/a.Main", "cgtest/a.Run", "(cgtest/a.T).M", "cgtest/b.Helper", "cgtest/b.Spin"} {
		if !reach[name] {
			t.Errorf("%s not reachable from Main", name)
		}
	}
	if reach["cgtest/b.Unused"] {
		t.Error("b.Unused reachable from Main; a function passed as an argument is not a static call edge")
	}
	if len(cg.Reachable("no/such.Fn")) != 0 {
		t.Error("reachability from an unknown root must be empty")
	}
}
