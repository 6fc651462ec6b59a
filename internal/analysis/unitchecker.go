package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"io"
	"os"
)

// vetConfig mirrors the JSON configuration file cmd/go passes to vet tools
// (the unitchecker protocol). Fields the checker does not need are elided;
// unknown fields are ignored by encoding/json.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// RunUnitchecker implements one invocation of the cmd/go vet-tool protocol:
// read the .cfg file, analyze the unit, and print findings to stderr. The
// analyzers exchange no facts, so the .vetx output cmd/go requires is
// always empty, and a VetxOnly unit — a dependency of the packages being
// vetted — needs no analysis at all. The returned exit code is 0 for a
// clean unit and 1 when there are findings.
func RunUnitchecker(cfgFile string, analyzers []*Analyzer) int {
	exit, err := runUnit(cfgFile, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sigcheck: %v\n", err)
		return 1
	}
	return exit
}

func runUnit(cfgFile string, analyzers []*Analyzer) (int, error) {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		return 1, err
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return 1, fmt.Errorf("parsing %s: %w", cfgFile, err)
	}
	// cmd/go requires the facts file to exist even when the unit fails to
	// analyze, so write it before anything can fail.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			return 1, err
		}
	}
	if cfg.VetxOnly {
		return 0, nil
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0, nil
			}
			return 1, err
		}
		files = append(files, f)
	}
	imp := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	pkg, err := TypeCheck(fset, cfg.ImportPath, files, imp)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0, nil
		}
		return 1, err
	}

	findings, err := RunPackage(pkg, analyzers)
	if err != nil {
		return 1, err
	}
	for _, f := range findings {
		fmt.Fprintf(os.Stderr, "%s\n", f)
	}
	if len(findings) > 0 {
		return 1, nil
	}
	return 0, nil
}
