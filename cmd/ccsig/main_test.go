package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// The CLI contract tests re-exec the test binary as ccsig (via
// CCSIG_TEST_RUN_MAIN) so exit codes and usage output are observed exactly
// as a shell would see them, without building a separate binary.

func TestMain(m *testing.M) {
	if os.Getenv("CCSIG_TEST_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runCLI(t *testing.T, args ...string) (stdout, stderr string, exitCode int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CCSIG_TEST_RUN_MAIN=1")
	var out, errb strings.Builder
	cmd.Stdout = &out
	cmd.Stderr = &errb
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("running %v: %v", args, err)
	}
	return out.String(), errb.String(), code
}

// goldenUsage is the exact top-level usage text; changing the CLI surface
// must update this golden deliberately.
const goldenUsage = `usage: ccsig <command> [flags]

commands:
  train      fit the decision tree on emulated controlled experiments
  classify   classify flows in server-side pcap captures
  serve      classify a pcap stream incrementally, emitting NDJSON verdicts
  summarize  print per-flow slow-start statistics from pcap captures
  inspect    print a trained model's decision tree
  testbed    run the §3 controlled-experiment sweep, train and score a model
  figures    regenerate the paper's figures and tables
  faults     measure accuracy under injected network faults
  conformance  run the tier-2 statistical conformance suite, emit a JSON report
  trace      run one instrumented experiment, export a Chrome/Perfetto trace
  metrics    run instrumented experiments, print metric snapshots
  bench      run hot-path micro-benchmarks, write a perf-trajectory artifact
  benchdiff  compare two bench artifacts against regression budgets
  checkmetrics  validate a saved Prometheus /metrics exposition
  help       show this message

run 'ccsig <command> -h' for per-command flags
`

func TestUsageGolden(t *testing.T) {
	_, stderr, code := runCLI(t, "help")
	if code != 0 {
		t.Fatalf("help exited %d", code)
	}
	if stderr != goldenUsage {
		t.Fatalf("usage text drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", stderr, goldenUsage)
	}
}

func TestTopLevelExitCodes(t *testing.T) {
	cases := []struct {
		name     string
		args     []string
		wantCode int
		wantErr  string // substring of stderr
	}{
		{name: "no arguments", args: nil, wantCode: 2, wantErr: "usage: ccsig"},
		{name: "unknown command", args: []string{"frobnicate"}, wantCode: 2, wantErr: `unknown command "frobnicate"`},
		{name: "help flag", args: []string{"--help"}, wantCode: 0, wantErr: "usage: ccsig"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, stderr, code := runCLI(t, c.args...)
			if code != c.wantCode {
				t.Fatalf("exit = %d, want %d\nstderr:\n%s", code, c.wantCode, stderr)
			}
			if !strings.Contains(stderr, c.wantErr) {
				t.Fatalf("stderr missing %q:\n%s", c.wantErr, stderr)
			}
		})
	}
}

// TestSubcommandFlagErrors: every subcommand must exit 2 on a bad flag and
// 0 on -h, printing its synopsis either way (the flag package contract,
// wired through newFlagSet).
func TestSubcommandFlagErrors(t *testing.T) {
	subs := []string{"train", "classify", "summarize", "inspect", "testbed", "figures", "faults", "conformance", "trace", "metrics", "bench", "benchdiff", "checkmetrics"}
	for _, sub := range subs {
		t.Run(sub+"/bad flag", func(t *testing.T) {
			_, stderr, code := runCLI(t, sub, "-no-such-flag")
			if code != 2 {
				t.Fatalf("exit = %d, want 2\nstderr:\n%s", code, stderr)
			}
			if !strings.Contains(stderr, "usage: ccsig "+sub) {
				t.Fatalf("stderr missing synopsis:\n%s", stderr)
			}
		})
		t.Run(sub+"/help", func(t *testing.T) {
			_, stderr, code := runCLI(t, sub, "-h")
			if code != 0 {
				t.Fatalf("exit = %d, want 0\nstderr:\n%s", code, stderr)
			}
			if !strings.Contains(stderr, "usage: ccsig "+sub) {
				t.Fatalf("stderr missing synopsis:\n%s", stderr)
			}
		})
	}
}

// TestSubcommandUsageErrors: argument validation beyond flag parsing also
// exits 2 with a pointed message (badUsage), before any expensive work.
func TestSubcommandUsageErrors(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{name: "classify without server", args: []string{"classify", "x.pcap"}, wantErr: "-server is required"},
		{name: "classify without pcaps", args: []string{"classify", "-server", "10.0.0.2"}, wantErr: "no pcap files given"},
		{name: "summarize without server", args: []string{"summarize", "x.pcap"}, wantErr: "-server is required"},
		{name: "summarize without pcaps", args: []string{"summarize", "-server", "10.0.0.2"}, wantErr: "no pcap files given"},
		{name: "conformance stray args", args: []string{"conformance", "stray"}, wantErr: "unexpected arguments"},
		{name: "conformance bad seeds", args: []string{"conformance", "-generate", "-seeds", "1,x"}, wantErr: `bad -seeds entry "x"`},
		{name: "bench without output", args: []string{"bench"}, wantErr: "-o is required"},
		{name: "bench bad count", args: []string{"bench", "-reps", "0", "-o", "x.json"}, wantErr: "-reps must be >= 1"},
		{name: "benchdiff one arg", args: []string{"benchdiff", "old.json"}, wantErr: "want exactly two artifact paths"},
		{name: "testbed resume without checkpoint", args: []string{"testbed", "-resume"}, wantErr: "-resume requires -checkpoint"},
		{name: "testbed output without csv", args: []string{"testbed", "-o", "x.csv"}, wantErr: "-o requires -csv"},
		{name: "figures resume without checkpoint", args: []string{"figures", "-resume"}, wantErr: "-resume requires -checkpoint"},
		{name: "figures bad scale", args: []string{"figures", "-scale", "bogus"}, wantErr: `unknown scale "bogus"`},
		{name: "figures unknown experiment", args: []string{"figures", "-only", "fig7,fig8,fgi9"}, wantErr: `unknown experiment "fgi9" (known: fig1,fig3,`},
		{name: "faults resume without checkpoint", args: []string{"faults", "-resume"}, wantErr: "-resume requires -checkpoint"},
		{name: "conformance resume without checkpoint", args: []string{"conformance", "-resume"}, wantErr: "-resume requires -checkpoint"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, stderr, code := runCLI(t, c.args...)
			if code != 2 {
				t.Fatalf("exit = %d, want 2\nstderr:\n%s", code, stderr)
			}
			if !strings.Contains(stderr, c.wantErr) {
				t.Fatalf("stderr missing %q:\n%s", c.wantErr, stderr)
			}
		})
	}
}

// TestRuntimeFailuresExitOne: operational failures (missing files, unknown
// names resolved after flag parsing) exit 1, distinct from usage errors.
func TestRuntimeFailuresExitOne(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{name: "inspect missing model", args: []string{"inspect", "-model", "/nonexistent/model.json"}, wantErr: "ccsig:"},
		{name: "classify missing model", args: []string{"classify", "-model", "/nonexistent/model.json", "-server", "10.0.0.2", "x.pcap"}, wantErr: "ccsig:"},
		{name: "faults unknown regime", args: []string{"faults", "-faults", "no-such-regime"}, wantErr: "unknown fault regime"},
		{name: "conformance unknown check", args: []string{"conformance", "-checks", "no-such-check"}, wantErr: "unknown check"},
		{name: "bench unknown benchmark", args: []string{"bench", "-only", "NoSuchBench", "-o", "-"}, wantErr: "unknown benchmark"},
		{name: "benchdiff missing artifact", args: []string{"benchdiff", "/nonexistent/a.json", "/nonexistent/b.json"}, wantErr: "ccsig:"},
		{name: "checkmetrics missing file", args: []string{"checkmetrics", "/nonexistent/metrics.txt"}, wantErr: "ccsig:"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, stderr, code := runCLI(t, c.args...)
			if code != 1 {
				t.Fatalf("exit = %d, want 1\nstderr:\n%s", code, stderr)
			}
			if !strings.Contains(stderr, c.wantErr) {
				t.Fatalf("stderr missing %q:\n%s", c.wantErr, stderr)
			}
		})
	}
}
