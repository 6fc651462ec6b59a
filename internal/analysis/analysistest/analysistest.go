// Package analysistest runs an analyzer over small fixture packages and
// checks its diagnostics against // want comments, in the style of
// golang.org/x/tools/go/analysis/analysistest.
//
// A fixture lives in testdata/src/<importpath>/ and is an ordinary Go
// package importing the standard library (resolved with the source
// importer, so no go command is needed) or sibling fixture packages under
// the same testdata/src tree, which are loaded recursively. A line
// expecting a diagnostic carries a trailing comment of the form
//
//	x := a / b // want `unguarded division`
//
// where each back- or double-quoted string is a regular expression that
// must match the message of exactly one diagnostic reported on that line.
// Lines without a want comment must produce no diagnostics; want comments
// in dependency fixtures are checked only when that dependency is itself
// listed as a package path.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"tcpsig/internal/analysis"
)

// Run loads each fixture package and checks a's diagnostics against the
// fixture's want comments.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgpaths ...string) {
	t.Helper()
	l := newLoader(t, testdata, a)
	for _, path := range pkgpaths {
		pkg, findings := l.load(path)
		if pkg == nil {
			continue
		}
		check(t, pkg, findings)
	}
}

// RunWithSuggestedFixes is Run plus golden-file checking: after the
// diagnostics are verified, every suggested fix is applied and each fixture
// file that has a sibling <name>.golden must match it byte for byte.
func RunWithSuggestedFixes(t *testing.T, testdata string, a *analysis.Analyzer, pkgpaths ...string) {
	t.Helper()
	l := newLoader(t, testdata, a)
	for _, path := range pkgpaths {
		pkg, findings := l.load(path)
		if pkg == nil {
			continue
		}
		check(t, pkg, findings)
		applyAndCompare(t, pkg, findings)
	}
}

// loader resolves fixture packages (testdata/src/<path>) recursively and
// analyzes each exactly once. Non-fixture imports fall through to the
// standard library source importer.
type loader struct {
	t        *testing.T
	testdata string
	a        *analysis.Analyzer
	fset     *token.FileSet
	std      types.Importer
	pkgs     map[string]*analysis.Package
	findings map[string][]analysis.Finding
	loading  map[string]bool
}

func newLoader(t *testing.T, testdata string, a *analysis.Analyzer) *loader {
	fset := token.NewFileSet()
	return &loader{
		t:        t,
		testdata: testdata,
		a:        a,
		fset:     fset,
		std:      importer.ForCompiler(fset, "source", nil),
		pkgs:     map[string]*analysis.Package{},
		findings: map[string][]analysis.Finding{},
		loading:  map[string]bool{},
	}
}

// Import implements types.Importer over the fixture tree: sibling fixture
// packages are loaded (and analyzed) on demand, everything else resolves
// from the standard library.
func (l *loader) Import(path string) (*types.Package, error) {
	if _, err := os.Stat(l.dir(path)); err == nil {
		pkg, _ := l.load(path)
		if pkg == nil {
			return nil, fmt.Errorf("fixture dependency %s failed to load", path)
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

func (l *loader) dir(pkgpath string) string {
	return filepath.Join(l.testdata, "src", filepath.FromSlash(pkgpath))
}

// load parses, type-checks and analyzes one fixture package (once; later
// calls return the cached result).
func (l *loader) load(pkgpath string) (*analysis.Package, []analysis.Finding) {
	l.t.Helper()
	if pkg, ok := l.pkgs[pkgpath]; ok {
		return pkg, l.findings[pkgpath]
	}
	if l.loading[pkgpath] {
		l.t.Errorf("fixture %s: import cycle", pkgpath)
		return nil, nil
	}
	l.loading[pkgpath] = true
	defer delete(l.loading, pkgpath)

	dir := l.dir(pkgpath)
	entries, err := os.ReadDir(dir)
	if err != nil {
		l.t.Errorf("fixture %s: %v", pkgpath, err)
		return nil, nil
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			l.t.Errorf("fixture %s: %v", pkgpath, err)
			return nil, nil
		}
		files = append(files, f)
	}
	pkg, err := analysis.TypeCheck(l.fset, pkgpath, files, l)
	if err != nil {
		l.t.Errorf("fixture %s: %v", pkgpath, err)
		return nil, nil
	}
	findings, err := analysis.RunPackage(pkg, []*analysis.Analyzer{l.a})
	if err != nil {
		l.t.Errorf("fixture %s: %v", pkgpath, err)
		return nil, nil
	}
	l.pkgs[pkgpath] = pkg
	l.findings[pkgpath] = findings
	return pkg, findings
}

// expectation is one want regexp at a file:line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	met  bool
}

func check(t *testing.T, pkg *analysis.Package, findings []analysis.Finding) {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := cutWant(c.Text)
				if !ok {
					continue
				}
				posn := pkg.Fset.Position(c.Pos())
				res, err := parseWantPatterns(rest)
				if err != nil {
					t.Errorf("%s: bad want comment: %v", posn, err)
					continue
				}
				for _, re := range res {
					wants = append(wants, &expectation{file: posn.Filename, line: posn.Line, re: re})
				}
			}
		}
	}
	for _, fd := range findings {
		matched := false
		for _, w := range wants {
			if !w.met && w.file == fd.Posn.Filename && w.line == fd.Posn.Line && w.re.MatchString(fd.Message) {
				w.met = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", fd)
		}
	}
	for _, w := range wants {
		if !w.met {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
}

func cutWant(comment string) (string, bool) {
	body := strings.TrimPrefix(comment, "//")
	body = strings.TrimSpace(body)
	return strings.CutPrefix(body, "want ")
}

// parseWantPatterns extracts each Go-quoted string ("..." or `...`) from
// the remainder of a want comment and compiles it.
func parseWantPatterns(s string) ([]*regexp.Regexp, error) {
	var out []*regexp.Regexp
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '`':
			j := strings.IndexByte(s[i+1:], '`')
			if j < 0 {
				return nil, fmt.Errorf("unterminated raw string in %q", s)
			}
			re, err := regexp.Compile(s[i+1 : i+1+j])
			if err != nil {
				return nil, err
			}
			out = append(out, re)
			i += j + 1
		case '"':
			j := i + 1
			for j < len(s) && (s[j] != '"' || s[j-1] == '\\') {
				j++
			}
			if j == len(s) {
				return nil, fmt.Errorf("unterminated string in %q", s)
			}
			lit, err := strconv.Unquote(s[i : j+1])
			if err != nil {
				return nil, err
			}
			re, err := regexp.Compile(lit)
			if err != nil {
				return nil, err
			}
			out = append(out, re)
			i = j
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no quoted regexp in %q", s)
	}
	return out, nil
}

func applyAndCompare(t *testing.T, pkg *analysis.Package, findings []analysis.Finding) {
	t.Helper()
	// Collect edits per file.
	type edit struct {
		start, end int
		text       []byte
	}
	edits := map[string][]edit{}
	for _, fd := range findings {
		for _, fix := range fd.SuggestedFixes {
			for _, te := range fix.TextEdits {
				start := pkg.Fset.Position(te.Pos)
				end := pkg.Fset.Position(te.End)
				edits[start.Filename] = append(edits[start.Filename], edit{start: start.Offset, end: end.Offset, text: te.NewText})
			}
		}
	}
	for file, es := range edits {
		golden := file + ".golden"
		want, err := os.ReadFile(golden)
		if err != nil {
			if os.IsNotExist(err) {
				continue // fixes on this file are not golden-checked
			}
			t.Errorf("%s: %v", golden, err)
			continue
		}
		src, err := os.ReadFile(file)
		if err != nil {
			t.Errorf("%s: %v", file, err)
			continue
		}
		sort.Slice(es, func(i, j int) bool { return es[i].start > es[j].start })
		for _, e := range es {
			src = append(src[:e.start], append(append([]byte(nil), e.text...), src[e.end:]...)...)
		}
		if string(src) != string(want) {
			t.Errorf("%s: applying suggested fixes does not match golden file:\n--- got ---\n%s\n--- want ---\n%s", file, src, want)
		}
	}
}
