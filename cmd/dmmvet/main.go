// Command dmmvet runs the repository's custom static analyzers — the
// mechanical half of the solver's numerical and concurrency contracts
// (the runtime half lives in internal/invariant):
//
//	floateq         no ==/!= on floating-point expressions
//	seeddet         no global math/rand or wall-clock seeding (Seed+attempt determinism)
//	stateclone      methods must not retain caller-provided slices without Clone/copy
//	ctxfirst        context.Context is always the first parameter
//	nakedgoroutine  all fan-out goes through internal/par
//	hotalloc        no allocations reachable from //dmmvet:hotpath roots
//	detflow         no map-order/wall-clock dataflow into solver results
//	atomicstate     no mixed atomic/plain access to the same field
//	goroleak        every entry-point-reachable goroutine has a termination path
//	lockorder       mutexes released on every warm path; acquisition order acyclic
//	chandisc        channels close once, never racing senders; hot sends buffered
//	fparith         hot-path FMA-fusable float products carry an explicit
//	                rounding barrier (or math.FMA, or a waiver)
//
// Usage:
//
//	dmmvet [-checks floateq,hotalloc,...] [-json] [-stats] [-changed ref] [packages]
//	dmmvet -list
//	dmmvet -allowlist [packages]
//
// Packages default to ./... — run hotalloc over the full module; with a
// partial package set its call graph treats in-repo callees as external.
// -changed <git-ref> restricts the findings to files modified since the
// ref (per git diff --name-only, plus untracked files); a summary line
// on stderr counts the findings skipped in unchanged files. The full
// module is still loaded and analyzed — only the report is filtered —
// so cross-package analyses keep their whole-program precision.
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
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/atomicstate"
	"repro/internal/analysis/chandisc"
	"repro/internal/analysis/ctxfirst"
	"repro/internal/analysis/detflow"
	"repro/internal/analysis/floateq"
	"repro/internal/analysis/fparith"
	"repro/internal/analysis/goroleak"
	"repro/internal/analysis/hotalloc"
	"repro/internal/analysis/lockorder"
	"repro/internal/analysis/nakedgoroutine"
	"repro/internal/analysis/seeddet"
	"repro/internal/analysis/stateclone"
)

func all() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		atomicstate.Analyzer,
		chandisc.Analyzer,
		ctxfirst.Analyzer,
		detflow.Analyzer,
		floateq.Analyzer,
		fparith.Analyzer,
		goroleak.Analyzer,
		hotalloc.Analyzer,
		lockorder.Analyzer,
		nakedgoroutine.Analyzer,
		seeddet.Analyzer,
		stateclone.Analyzer,
	}
}

// changedFiles resolves the set of files modified since ref — tracked
// changes per `git diff --name-only ref`, plus untracked files — as
// absolute paths, so findings (whose positions the loader reports
// relative to the working directory) can be filtered against it.
func changedFiles(ref string) (map[string]bool, error) {
	set := make(map[string]bool)
	for _, args := range [][]string{
		{"diff", "--name-only", ref},
		{"ls-files", "--others", "--exclude-standard"},
	} {
		out, err := exec.Command("git", args...).Output()
		if err != nil {
			return nil, fmt.Errorf("git %s: %v", strings.Join(args, " "), err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			if line = strings.TrimSpace(line); line == "" {
				continue
			}
			abs, err := filepath.Abs(line)
			if err != nil {
				continue
			}
			set[abs] = true
		}
	}
	return set, nil
}

// filterChanged splits findings into those in changed files and those
// skipped, returning the kept findings and the sorted list of files
// whose findings were dropped.
func filterChanged(findings []analysis.Finding, changed map[string]bool) (kept []analysis.Finding, skippedFiles []string, skipped int) {
	seen := make(map[string]bool)
	for _, f := range findings {
		abs, err := filepath.Abs(f.Pos.Filename)
		if err == nil && changed[abs] {
			kept = append(kept, f)
			continue
		}
		skipped++
		if !seen[f.Pos.Filename] {
			seen[f.Pos.Filename] = true
			skippedFiles = append(skippedFiles, f.Pos.Filename)
		}
	}
	sort.Strings(skippedFiles)
	return kept, skippedFiles, skipped
}

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	checks := flag.String("checks", "", "comma-separated analyzer names to run (default: all)")
	jsonOut := flag.Bool("json", false, "emit findings as a stable JSON array")
	stats := flag.Bool("stats", false, "report per-analyzer finding counts and wall time")
	allowlist := flag.Bool("allowlist", false, "print every active //dmmvet:allow suppression and exit")
	changed := flag.String("changed", "", "restrict findings to files modified since this git ref")
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
	if *changed != "" {
		set, err := changedFiles(*changed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dmmvet: -changed:", err)
			os.Exit(2)
		}
		var skippedFiles []string
		var skipped int
		findings, skippedFiles, skipped = filterChanged(findings, set)
		if skipped > 0 {
			fmt.Fprintf(os.Stderr, "dmmvet: -changed %s: skipped %d finding(s) in %d unchanged file(s): %s\n",
				*changed, skipped, len(skippedFiles), strings.Join(skippedFiles, ", "))
		}
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
