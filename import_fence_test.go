package repro

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// fencedImports are the standard packages the solver must not link.
// The cmds' flag and profile wiring needs flag and runtime/pprof, and it
// lives in internal/obs/cmdobs, which only the cmds import. No package of
// the module serves over a network; net and net/http stay fenced so
// that none starts to from inside the solver.
var fencedImports = map[string]bool{
	"net":           true,
	"net/http":      true,
	"runtime/pprof": true,
	"flag":          true,
}

// TestSolverImportFence walks the module's own import graph from
// internal/solc and internal/core, reading the import blocks of every
// non-test file, and fails if a reachable package imports a fenced
// package. Build tags are ignored, so a file behind any tag counts.
func TestSolverImportFence(t *testing.T) {
	const module = "repro"
	roots := []string{module + "/internal/solc", module + "/internal/core"}
	// via records the importer each package was first reached from, so a
	// failure can print the chain back to a root.
	via := map[string]string{}
	for _, r := range roots {
		via[r] = ""
	}
	queue := append([]string(nil), roots...)
	fset := token.NewFileSet()
	for len(queue) > 0 {
		pkg := queue[0]
		queue = queue[1:]
		dir := filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(pkg, module), "/"))
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Fatalf("%s: no Go files in %s", pkg, dir)
		}
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			src, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			f, err := parser.ParseFile(fset, name, src, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range f.Imports {
				path, err := strconv.Unquote(spec.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				if fencedImports[path] {
					chain := pkg
					for p := via[pkg]; p != ""; p = via[p] {
						chain = p + " -> " + chain
					}
					t.Errorf("%s imports %q (reached by %s)", name, path, chain)
				}
				if path != module && !strings.HasPrefix(path, module+"/") {
					continue
				}
				if _, seen := via[path]; !seen {
					via[path] = pkg
					queue = append(queue, path)
				}
			}
		}
	}
	if len(via) < len(roots)+3 {
		t.Fatalf("walk reached only %d packages; is the module path %q still right?", len(via), module)
	}
}
