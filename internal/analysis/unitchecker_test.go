package analysis

import (
	"encoding/json"
	"go/ast"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// crossCallAnalyzer reports every call to a function of another package.
// Resolving the callee needs the dependency's type information, so a
// finding in an importing package shows the driver type-checked it against
// the dependency's gc export data.
func crossCallAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "crosscall",
		Doc:  "test analyzer: reports calls into other packages",
		Run: func(pass *Pass) (interface{}, error) {
			pass.Inspect.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
				sel, ok := n.(*ast.CallExpr).Fun.(*ast.SelectorExpr)
				if !ok {
					return
				}
				if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != pass.Pkg {
					pass.Reportf(n.Pos(), "call to %s.%s", fn.Pkg().Path(), fn.Name())
				}
			})
			return nil, nil
		},
	}
}

// writeModule lays out the two-package fixture module: dep exports a
// function, imp calls it.
func writeModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod":     "module vetdemo\n\ngo 1.22\n",
		"dep/dep.go": "package dep\n\nfunc Marked() {}\n",
		"imp/imp.go": "package imp\n\nimport \"vetdemo/dep\"\n\nfunc Use() { dep.Marked() }\n",
	}
	for name, content := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := writeFileMkdir(path, content); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestUnitcheckerProtocol replays the cmd/go vet-tool protocol by hand on
// three units: one with a finding, one that fails to type-check, and a
// VetxOnly dependency unit. Every unit must leave an empty .vetx file
// behind, because cmd/go requires it and the analyzers export no facts.
func TestUnitcheckerProtocol(t *testing.T) {
	dir := writeModule(t)
	out, err := command(dir, "go", "list", "-export", "-f", "{{.Export}}", "./dep")
	if err != nil {
		t.Fatal(err)
	}
	depExport := strings.TrimSpace(out)
	if depExport == "" {
		t.Fatal("go list produced no export data for dep")
	}
	impUnit := vetConfig{
		ID:          "vetdemo/imp",
		Compiler:    "gc",
		ImportPath:  "vetdemo/imp",
		GoFiles:     []string{filepath.Join(dir, "imp", "imp.go")},
		PackageFile: map[string]string{"vetdemo/dep": depExport},
	}

	t.Run("finding", func(t *testing.T) {
		cfg := impUnit
		cfg.VetxOutput = filepath.Join(dir, "imp.vetx")
		code, stderr := runUnitCapturing(t, writeCfg(t, dir, "imp.cfg", cfg))
		if code != 1 {
			t.Errorf("exit %d, want 1", code)
		}
		if !strings.Contains(stderr, "imp.go:5:14: crosscall: call to vetdemo/dep.Marked") {
			t.Errorf("stderr does not carry the finding:\n%s", stderr)
		}
		assertEmptyFile(t, cfg.VetxOutput)
	})

	t.Run("typecheck failure", func(t *testing.T) {
		bad := filepath.Join(t.TempDir(), "bad.go")
		if err := writeFileMkdir(bad, "package bad\n\nvar x int = \"s\"\n"); err != nil {
			t.Fatal(err)
		}
		cfg := vetConfig{
			ID:         "vetdemo/bad",
			Compiler:   "gc",
			ImportPath: "vetdemo/bad",
			GoFiles:    []string{bad},
			VetxOutput: filepath.Join(dir, "bad.vetx"),
		}
		code, stderr := runUnitCapturing(t, writeCfg(t, dir, "bad.cfg", cfg))
		if code != 1 || !strings.Contains(stderr, "typecheck vetdemo/bad") {
			t.Errorf("exit %d, stderr %q; want 1 and the type error", code, stderr)
		}
		assertEmptyFile(t, cfg.VetxOutput)
	})

	t.Run("vetx only", func(t *testing.T) {
		cfg := impUnit
		cfg.VetxOnly = true
		cfg.VetxOutput = filepath.Join(dir, "imp-only.vetx")
		code, stderr := runUnitCapturing(t, writeCfg(t, dir, "imp-only.cfg", cfg))
		if code != 0 || stderr != "" {
			t.Errorf("exit %d, stderr %q; want 0 and nothing printed", code, stderr)
		}
		assertEmptyFile(t, cfg.VetxOutput)
	})
}

// runUnitCapturing runs one vet unit with crossCallAnalyzer, os.Stderr
// redirected to a file, and returns the exit code and what it printed.
func runUnitCapturing(t *testing.T, cfgFile string) (int, string) {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = f
	code := RunUnitchecker(cfgFile, []*Analyzer{crossCallAnalyzer()})
	os.Stderr = saved
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out)
}

func assertEmptyFile(t *testing.T, path string) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Errorf("vetx output: %v", err)
	} else if fi.Size() != 0 {
		t.Errorf("vetx output %s has %d bytes, want 0", path, fi.Size())
	}
}

// Small os helpers kept out of the test bodies.

func writeFileMkdir(path, content string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(content), 0o666)
}

func writeCfg(t *testing.T, dir, name string, cfg vetConfig) string {
	t.Helper()
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	return path
}

func command(dir string, name string, args ...string) (string, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	return string(out), err
}
