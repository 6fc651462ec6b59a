// Command sigcheck runs the repo's determinism, numeric-safety,
// concurrency-safety, and bounded-growth analyzers (see internal/analysis and
// DESIGN.md "Determinism & numeric invariants"). It supports two modes:
//
//	go run ./cmd/sigcheck              # standalone over ./..., non-test files
//	go run ./cmd/sigcheck ./internal/sim/...
//	go vet -vettool=$(which sigcheck) ./... # vet tool, includes test files
//
// In standalone mode package patterns are resolved with the go command
// (defaulting to ./..., which covers cmd/... as well as internal/...),
// matched packages are type-checked from source and analyzed in dependency
// order so cross-package facts flow from imported packages to importers;
// the exit status is nonzero when any analyzer reports a finding. As a vet
// tool it speaks the cmd/go unitchecker .cfg protocol, with facts carried
// between compilation units in .vetx files.
//
// The -only and -skip flags narrow the analyzer set in standalone mode
// (comma-separated names; -list prints the roster). Vet mode always runs
// every analyzer: cmd/go caches results keyed by the tool's version, so a
// per-run analyzer selection would poison the cache.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"tcpsig/internal/analysis"
	"tcpsig/internal/analysis/atomicmix"
	"tcpsig/internal/analysis/boundedgrowth"
	"tcpsig/internal/analysis/errtaxonomy"
	"tcpsig/internal/analysis/floatsafe"
	"tcpsig/internal/analysis/goroutinesafe"
	"tcpsig/internal/analysis/maporder"
	"tcpsig/internal/analysis/simdeterminism"
)

// version participates in cmd/go's tool cache key. Bump it on EVERY
// behavioral change — a new analyzer, a new or removed diagnostic, a
// changed message — or `go vet -vettool` silently serves stale cached
// results for unchanged packages. The convention is v<major>-<suite>:
// major increments with the analyzer roster, the suffix names what the
// suite now covers.
const version = "v4-concurrency-suite"

var analyzers = []*analysis.Analyzer{
	simdeterminism.Analyzer,
	maporder.Analyzer,
	floatsafe.Analyzer,
	errtaxonomy.Analyzer,
	goroutinesafe.Analyzer,
	atomicmix.Analyzer,
	boundedgrowth.Analyzer,
}

func main() {
	versionFlag := flag.String("V", "", "print version and exit (vet tool protocol)")
	flagsFlag := flag.Bool("flags", false, "print flag descriptions as JSON and exit (vet tool protocol)")
	listFlag := flag.Bool("list", false, "print the analyzer roster and exit")
	onlyFlag := flag.String("only", "", "comma-separated analyzer names to run (standalone mode)")
	skipFlag := flag.String("skip", "", "comma-separated analyzer names to skip (standalone mode)")
	flag.Usage = usage
	flag.Parse()
	if *versionFlag != "" {
		fmt.Printf("sigcheck version %s\n", version)
		return
	}
	if *flagsFlag {
		// cmd/go queries the tool's flags; sigcheck exposes none to vet —
		// see the package comment for why -only/-skip are standalone-only.
		fmt.Println("[]")
		return
	}
	if *listFlag {
		printRoster(os.Stdout)
		return
	}
	args := flag.Args()

	// go vet hands the tool a single JSON config file per package unit.
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(analysis.RunUnitchecker(args[0], analyzers))
	}

	selected, err := selectAnalyzers(*onlyFlag, *skipFlag)
	if err != nil {
		fatal(err)
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}
	dir, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	pkgs, err := analysis.Load(dir, args...)
	if err != nil {
		fatal(err)
	}
	findings, err := analysis.RunPackages(pkgs, selected)
	if err != nil {
		fatal(err)
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// selectAnalyzers applies -only and -skip to the roster. Unknown names are
// an error: a typo that silently ran nothing would read as a clean pass.
func selectAnalyzers(only, skip string) ([]*analysis.Analyzer, error) {
	if only != "" && skip != "" {
		return nil, fmt.Errorf("-only and -skip are mutually exclusive")
	}
	byName := map[string]*analysis.Analyzer{}
	for _, a := range analyzers {
		byName[a.Name] = a
	}
	parse := func(list string) (map[string]bool, error) {
		set := map[string]bool{}
		for _, name := range strings.Split(list, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if byName[name] == nil {
				return nil, fmt.Errorf("unknown analyzer %q (run sigcheck -list for the roster)", name)
			}
			set[name] = true
		}
		return set, nil
	}
	switch {
	case only != "":
		set, err := parse(only)
		if err != nil {
			return nil, err
		}
		var out []*analysis.Analyzer
		for _, a := range analyzers {
			if set[a.Name] {
				out = append(out, a)
			}
		}
		return out, nil
	case skip != "":
		set, err := parse(skip)
		if err != nil {
			return nil, err
		}
		var out []*analysis.Analyzer
		for _, a := range analyzers {
			if !set[a.Name] {
				out = append(out, a)
			}
		}
		return out, nil
	}
	return analyzers, nil
}

func printRoster(w *os.File) {
	for _, a := range analyzers {
		summary, _, _ := strings.Cut(a.Doc, "\n")
		fmt.Fprintf(w, "%-16s %s\n", a.Name, summary)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: sigcheck [-only names | -skip names] [package...]\n\nAnalyzers:\n")
	printRoster(os.Stderr)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "sigcheck: %v\n", err)
	os.Exit(1)
}
