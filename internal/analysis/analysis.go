// Package analysis is a self-contained miniature of the
// golang.org/x/tools/go/analysis framework: just enough Analyzer / Pass /
// Diagnostic machinery to write repo-local vet checks without pulling the
// x/tools dependency into the module. The API shapes deliberately mirror
// x/tools so the analyzers in the subpackages could be ported to the real
// framework by changing only imports.
//
// Two execution environments are supported:
//
//   - standalone: cmd/sigcheck loads packages itself (see Load) and runs
//     every analyzer over them — `go run ./cmd/sigcheck ./...`
//   - vet tool: cmd/sigcheck also speaks the cmd/go unitchecker protocol,
//     so `go vet -vettool=$(which sigcheck) ./...` works and analyzes test
//     files as well.
//
// Suppression: a diagnostic is discarded when the offending line, or the
// line above it, carries a comment of the form
//
//	//sigcheck:ignore [analyzer-name] -- reason
//
// With no analyzer name the line is exempt from every analyzer. The reason
// text is mandatory and enforced mechanically: an ignore with no "--
// reason" is itself reported, under the reserved analyzer name
// "sigcheckignore", and that report cannot be suppressed (an ignore
// covers its own line, so a bare ignore would otherwise exempt itself).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"tcpsig/internal/analysis/inspector"
)

// An Analyzer is one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore comments.
	Name string

	// Doc is the help text; the first line is the summary.
	Doc string

	// Run applies the analyzer to one package.
	Run func(*Pass) (interface{}, error)
}

// IgnoreAnalyzerName is the reserved analyzer name under which violations
// of the //sigcheck:ignore contract itself (a bare ignore with no
// "-- reason" text) are reported.
const IgnoreAnalyzerName = "sigcheckignore"

// A Pass presents one package to an Analyzer's Run function.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Inspect replays a single shared traversal of Files; analyzers
	// should dispatch through it instead of hand-rolling ast.Inspect.
	Inspect *inspector.Inspector

	// Report delivers one diagnostic.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	End     token.Pos // optional
	Message string

	// SuggestedFixes holds mechanical rewrites, when the fix is purely
	// syntactic.
	SuggestedFixes []SuggestedFix
}

// A SuggestedFix is one mechanical rewrite for a diagnostic.
type SuggestedFix struct {
	Message   string
	TextEdits []TextEdit
}

// A TextEdit replaces [Pos, End) with NewText.
type TextEdit struct {
	Pos     token.Pos
	End     token.Pos
	NewText []byte
}

// Finding pairs a diagnostic with the analyzer and package that produced
// it, plus its resolved position.
type Finding struct {
	Analyzer string
	PkgPath  string
	Posn     token.Position
	Diagnostic
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Posn, f.Analyzer, f.Message)
}

// RunPackage applies every analyzer to pkg, filters findings suppressed by
// //sigcheck:ignore comments, and returns them sorted by position.
func RunPackage(pkg *Package, analyzers []*Analyzer) ([]Finding, error) {
	ignores, bare := collectIgnores(pkg.Fset, pkg.Files)
	insp := inspector.New(pkg.Files)
	var out []Finding
	for _, pos := range bare {
		out = append(out, Finding{
			Analyzer: IgnoreAnalyzerName,
			PkgPath:  pkg.PkgPath,
			Posn:     pkg.Fset.Position(pos),
			Diagnostic: Diagnostic{
				Pos:     pos,
				Message: "sigcheck:ignore without a `-- reason`: every suppression must say why",
			},
		})
	}
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			Inspect:   insp,
		}
		name := a.Name
		pass.Report = func(d Diagnostic) {
			posn := pkg.Fset.Position(d.Pos)
			if ignores.match(name, posn) {
				return
			}
			out = append(out, Finding{Analyzer: name, PkgPath: pkg.PkgPath, Posn: posn, Diagnostic: d})
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.PkgPath, err)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Posn, out[j].Posn
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// ignoreSet records, per file, the lines exempted by //sigcheck:ignore
// comments and which analyzers each exemption covers ("" = all).
type ignoreSet map[string]map[int][]string

func (s ignoreSet) match(analyzer string, posn token.Position) bool {
	for _, n := range s[posn.Filename][posn.Line] {
		if n == "" || n == analyzer {
			return true
		}
	}
	return false
}

// collectIgnores gathers the //sigcheck:ignore exemptions plus the
// positions of ignores that violate the contract: no "-- reason" text.
func collectIgnores(fset *token.FileSet, files []*ast.File) (ignoreSet, []token.Pos) {
	out := ignoreSet{}
	var bare []token.Pos
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//sigcheck:ignore")
				if !ok {
					continue
				}
				// Optional analyzer name up to "--"; the reason after
				// "--" is mandatory.
				name, reason, found := strings.Cut(text, "--")
				if !found || strings.TrimSpace(reason) == "" {
					bare = append(bare, c.Pos())
				}
				name = strings.TrimSpace(name)
				posn := fset.Position(c.Pos())
				m := out[posn.Filename]
				if m == nil {
					m = map[int][]string{}
					out[posn.Filename] = m
				}
				// The exemption covers the comment's own line (trailing
				// comment) and the next line (own-line comment).
				m[posn.Line] = append(m[posn.Line], name)
				m[posn.Line+1] = append(m[posn.Line+1], name)
			}
		}
	}
	return out, bare
}

// HasPathSuffix reports whether the import path matches one of the
// configured package suffixes (e.g. "internal/sim" matches both
// "tcpsig/internal/sim" and a test fixture loaded as "internal/sim").
func HasPathSuffix(path string, suffixes []string) bool {
	for _, s := range suffixes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}
