// Command sigcheck runs the repo's determinism, numeric-safety,
// error-taxonomy and lock-discipline analyzers (see internal/analysis and
// DESIGN.md "Determinism & numeric invariants"). It supports two modes:
//
//	go run ./cmd/sigcheck              # standalone over ./..., non-test files
//	go run ./cmd/sigcheck ./internal/sim/...
//	go vet -vettool=$(which sigcheck) ./... # vet tool, includes test files
//
// In standalone mode package patterns are resolved with the go command
// (defaulting to ./..., which covers cmd/... as well as internal/...) and
// the matched packages are type-checked from source and analyzed one by
// one; the exit status is nonzero when any analyzer reports a finding. As
// a vet tool it speaks the cmd/go unitchecker .cfg protocol. Every mode
// runs every analyzer; -list prints the roster.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"tcpsig/internal/analysis"
	"tcpsig/internal/analysis/errtaxonomy"
	"tcpsig/internal/analysis/floatsafe"
	"tcpsig/internal/analysis/lockleak"
	"tcpsig/internal/analysis/maporder"
	"tcpsig/internal/analysis/simdeterminism"
)

// version participates in cmd/go's tool cache key. Bump it on EVERY
// behavioral change — a new analyzer, a new or removed diagnostic, a
// changed message — or `go vet -vettool` silently serves stale cached
// results for unchanged packages. The convention is v<major>-<suite>:
// major increments with the analyzer roster, the suffix names what the
// suite now covers.
const version = "v5-lockleak-suite"

var analyzers = []*analysis.Analyzer{
	simdeterminism.Analyzer,
	maporder.Analyzer,
	floatsafe.Analyzer,
	errtaxonomy.Analyzer,
	lockleak.Analyzer,
}

func main() {
	versionFlag := flag.String("V", "", "print version and exit (vet tool protocol)")
	flagsFlag := flag.Bool("flags", false, "print flag descriptions as JSON and exit (vet tool protocol)")
	listFlag := flag.Bool("list", false, "print the analyzer roster and exit")
	flag.Usage = usage
	flag.Parse()
	if *versionFlag != "" {
		fmt.Printf("sigcheck version %s\n", version)
		return
	}
	if *flagsFlag {
		// cmd/go queries the tool's flags; sigcheck exposes none to vet.
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
	found := false
	for _, pkg := range pkgs {
		findings, err := analysis.RunPackage(pkg, analyzers)
		if err != nil {
			fatal(err)
		}
		for _, f := range findings {
			fmt.Fprintln(os.Stderr, f)
			found = true
		}
	}
	if found {
		os.Exit(1)
	}
}

func printRoster(w *os.File) {
	for _, a := range analyzers {
		summary, _, _ := strings.Cut(a.Doc, "\n")
		fmt.Fprintf(w, "%-16s %s\n", a.Name, summary)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: sigcheck [-list] [package...]\n\nAnalyzers:\n")
	printRoster(os.Stderr)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "sigcheck: %v\n", err)
	os.Exit(1)
}
