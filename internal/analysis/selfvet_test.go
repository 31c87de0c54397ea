package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/detflow"
	"repro/internal/analysis/floateq"
	"repro/internal/analysis/fparith"
	"repro/internal/analysis/hotalloc"
	"repro/internal/analysis/lockorder"
	"repro/internal/analysis/nakedgoroutine"
	"repro/internal/analysis/seeddet"
	"repro/internal/analysis/stateclone"
)

// TestSelfVet runs the complete dmmvet suite — the same analyzers, in
// the same order, as cmd/dmmvet's all() — over the repository's own
// packages and requires zero findings: the tree must stay clean under
// its own analyzers, with every waiver justified. This is the tier-1
// regression gate for the analyzers themselves: a change that makes
// hotalloc or detflow misfire on real code fails here, not in CI after
// merge. It is also the main place cross-package call-graph traversal
// (hotalloc's Step → obs/la walk, fparith's sweep from the same roots)
// is exercised over real module-sized input.
func TestSelfVet(t *testing.T) {
	if testing.Short() {
		t.Skip("self-vet type-checks the whole module; skipped in -short")
	}
	loader := analysis.NewLoader()
	pkgs, err := loader.Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading repository packages: %v", err)
	}
	analyzers := []*analysis.Analyzer{
		detflow.Analyzer,
		floateq.Analyzer,
		fparith.Analyzer,
		hotalloc.Analyzer,
		lockorder.Analyzer,
		nakedgoroutine.Analyzer,
		seeddet.Analyzer,
		stateclone.Analyzer,
	}
	findings, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, f := range findings {
		t.Errorf("self-vet: %s", f)
	}
}
