package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Package is one loaded, type-checked package.
type Package struct {
	PkgPath   string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Export     string
	Standard   bool
	DepOnly    bool
	Incomplete bool
	Error      *struct{ Err string }
}

// Load lists the packages matching patterns (relative to dir), compiles
// export data for them and their dependencies via the go command, and
// type-checks the matched packages from source. It needs no network access:
// everything resolves from GOROOT and the local module.
//
// Only non-test GoFiles are analyzed in standalone mode; running sigcheck
// through `go vet -vettool` covers test files too.
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{
		"list", "-e", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,CgoFiles,Export,Standard,DepOnly,Incomplete,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}

	exports := map[string]string{}
	var targets []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %w", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			if p.Error != nil {
				return nil, fmt.Errorf("go list %s: %s", p.ImportPath, p.Error.Err)
			}
			pkg := p
			targets = append(targets, &pkg)
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})

	var pkgs []*Package
	for _, t := range targets {
		if len(t.CgoFiles) > 0 {
			return nil, fmt.Errorf("%s: cgo packages are not supported by the standalone loader", t.ImportPath)
		}
		var files []*ast.File
		for _, name := range t.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		pkg, err := TypeCheck(fset, t.ImportPath, files, imp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// TypeCheck type-checks a parsed package and wraps it for RunPackage.
func TypeCheck(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	return &Package{PkgPath: path, Fset: fset, Files: files, Types: tpkg, TypesInfo: info}, nil
}
