// Command dmmvet runs the repository's custom static analyzers — the
// mechanical half of the solver's numerical and concurrency contracts
// (the runtime half lives in internal/invariant):
//
//	floateq         no ==/!= on floating-point expressions
//	seeddet         no global math/rand or wall-clock seeding (Seed+attempt determinism)
//	stateclone      methods must not retain caller-provided slices without Clone/copy
//	nakedgoroutine  all fan-out goes through internal/par
//	hotalloc        no allocations reachable from //dmmvet:hotpath roots
//	detflow         no map-order/wall-clock dataflow into solver results
//	lockorder       mutexes released on every non-failure path
//	fparith         hot-path FMA-fusable float products carry an explicit
//	                rounding barrier (or math.FMA, or a waiver)
//
// The rest of the concurrency contract is dynamic: every go statement
// lives in internal/par (nakedgoroutine), and `go test -race` plus the
// tests cover what runs there.
//
// Usage:
//
//	dmmvet [-checks floateq,hotalloc,...] [-json] [-stats] [packages]
//	dmmvet -list
//	dmmvet -allowlist [packages]
//
// Packages default to ./... — run hotalloc and fparith over the full
// module; with a partial package set their call graph treats in-repo
// callees as external.
//
// Annotation contract:
//
//	//dmmvet:hotpath                      (doc comment) marks a function as a
//	                                      zero-alloc root; hotalloc checks it
//	                                      and everything statically reachable,
//	                                      and fparith sweeps the same region
//	                                      for unbarriered fusable products.
//	//dmmvet:coldpath — <why>             (doc comment) stops hotalloc traversal
//	                                      at an amortized function; the
//	                                      justification is mandatory. fparith
//	                                      traverses through it: off-step-path
//	                                      arithmetic still feeds solver state.
//	//dmmvet:allow <analyzer> — <why>     waives one finding on the same or the
//	                                      following line. An allow without a
//	                                      justification is itself a finding and
//	                                      waives nothing.
//
// Findings print as file:line:col: message (analyzer), sorted by
// (file, line, column, analyzer) so two runs are byte-identical; -json
// emits the same order as a stable JSON array. -stats adds per-analyzer
// finding counts and wall time: as a text table on stderr, or — with
// -json — by switching the payload to {"findings": […], "stats": […]}.
// Exit status: 0 clean, 1 findings (including unjustified
// suppressions), 2 load/usage error.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

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

func all() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		detflow.Analyzer,
		floateq.Analyzer,
		fparith.Analyzer,
		hotalloc.Analyzer,
		lockorder.Analyzer,
		nakedgoroutine.Analyzer,
		seeddet.Analyzer,
		stateclone.Analyzer,
	}
}

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	checks := flag.String("checks", "", "comma-separated analyzer names to run (default: all)")
	jsonOut := flag.Bool("json", false, "emit findings as a stable JSON array")
	stats := flag.Bool("stats", false, "report per-analyzer finding counts and wall time")
	allowlist := flag.Bool("allowlist", false, "print every active //dmmvet:allow suppression and exit")
	flag.Parse()

	analyzers := all()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *checks != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, n := range strings.Split(*checks, ",") {
			n = strings.TrimSpace(n)
			a, ok := byName[n]
			if !ok {
				fmt.Fprintf(os.Stderr, "dmmvet: unknown analyzer %q (see -list)\n", n)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader := analysis.NewLoader()
	pkgs, err := loader.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmmvet:", err)
		os.Exit(2)
	}
	if *allowlist {
		for _, s := range analysis.Suppressions(pkgs) {
			fmt.Println(s)
		}
		return
	}
	findings, perAnalyzer, err := analysis.RunWithStats(pkgs, analyzers, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmmvet:", err)
		os.Exit(2)
	}
	switch {
	case *jsonOut && *stats:
		if err := analysis.WriteJSONStats(os.Stdout, findings, perAnalyzer); err != nil {
			fmt.Fprintln(os.Stderr, "dmmvet:", err)
			os.Exit(2)
		}
	case *jsonOut:
		if err := analysis.WriteJSON(os.Stdout, findings); err != nil {
			fmt.Fprintln(os.Stderr, "dmmvet:", err)
			os.Exit(2)
		}
	default:
		for _, f := range findings {
			fmt.Println(f)
		}
		if *stats {
			fmt.Fprintf(os.Stderr, "%-16s %9s %9s\n", "analyzer", "findings", "wall-ms")
			for _, s := range perAnalyzer {
				fmt.Fprintf(os.Stderr, "%-16s %9d %9.1f\n", s.Analyzer, s.Findings, s.WallMS)
			}
		}
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}
