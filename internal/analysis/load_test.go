package analysis

import (
	"strings"
	"testing"
)

// TestLoadStandalone drives the standalone loader end to end: both
// packages of the fixture module are type-checked from source, imp
// against dep's gc export data, so the call into dep resolves and is
// reported in imp alone.
func TestLoadStandalone(t *testing.T) {
	pkgs, err := Load(writeModule(t), "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want 2", len(pkgs))
	}
	var findings []Finding
	for _, pkg := range pkgs {
		fs, err := RunPackage(pkg, []*Analyzer{crossCallAnalyzer()})
		if err != nil {
			t.Fatal(err)
		}
		findings = append(findings, fs...)
	}
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(findings), findings)
	}
	if f := findings[0]; f.PkgPath != "vetdemo/imp" || !strings.Contains(f.Message, "call to vetdemo/dep.Marked") {
		t.Errorf("unexpected finding: %v", f)
	}
}
