package main

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"

	"tcpsig/internal/benchkit"
	"tcpsig/internal/telemetry"
)

// benchCmd runs the hot-path micro-benchmarks (the same bodies the root
// `go test -bench` suite wraps) through testing.Benchmark and writes a
// versioned perf-trajectory artifact, conventionally BENCH_<rev>.json.
// Pair two artifacts with `ccsig benchdiff` to gate regressions.
func benchCmd(args []string) {
	fs := newFlagSet("bench", "[-rev LABEL] [-reps N] [-min-time D] [-only name,...] [-list] -o BENCH_rev.json")
	rev := fs.String("rev", "unversioned", "revision label stamped into the artifact (e.g. a git short hash)")
	reps := fs.Int("reps", 1, "minimum repetitions per benchmark; the fastest repetition is recorded, all are kept as the spread")
	minTime := fs.Duration("min-time", 0, "keep repeating each benchmark until this much total measured time accrues (e.g. 5s)")
	only := fs.String("only", "", "comma-separated benchmark names to run (default: all)")
	list := fs.Bool("list", false, "list available benchmark names and exit")
	out := fs.String("o", "", "artifact output path ('-' = stdout)")
	fs.Parse(args)
	if fs.NArg() != 0 {
		badUsage(fs, fmt.Sprintf("unexpected argument %q", fs.Arg(0)))
	}

	all := benchkit.All()
	if *list {
		for _, bm := range all {
			fmt.Println(bm.Name)
		}
		return
	}
	if *out == "" {
		badUsage(fs, "-o is required")
	}
	if *reps < 1 {
		badUsage(fs, "-reps must be >= 1")
	}
	if *minTime < 0 {
		badUsage(fs, "-min-time must be >= 0")
	}

	selected := all
	if *only != "" {
		byName := make(map[string]benchkit.Benchmark, len(all))
		var known []string
		for _, bm := range all {
			byName[bm.Name] = bm
			known = append(known, bm.Name)
		}
		selected = nil
		for _, n := range strings.Split(*only, ",") {
			n = strings.TrimSpace(n)
			bm, ok := byName[n]
			if !ok {
				fatal(fmt.Errorf("unknown benchmark %q (available: %s)", n, strings.Join(known, ", ")))
			}
			selected = append(selected, bm)
		}
	}

	results := make([]telemetry.BenchResult, 0, len(selected))
	for _, bm := range selected {
		runs := benchkit.Measure(bm.Fn, benchkit.RunOptions{Reps: *reps, MinTime: *minTime})
		bestRep := benchkit.Best(runs)
		best := telemetry.BenchResult{
			Name:        bm.Name,
			NsPerOp:     bestRep.NsPerOp,
			AllocsPerOp: bestRep.AllocsPerOp,
			BytesPerOp:  bestRep.BytesPerOp,
			N:           bestRep.N,
			Reps:        len(runs),
		}
		if len(runs) > 1 {
			best.RepNs = make([]float64, len(runs))
			for i, r := range runs {
				best.RepNs[i] = r.NsPerOp
			}
		}
		slog.Info("bench", "name", bm.Name, "ns_per_op", best.NsPerOp,
			"allocs_per_op", best.AllocsPerOp, "bytes_per_op", best.BytesPerOp,
			"iterations", best.N, "reps", best.Reps)
		results = append(results, best)
	}

	artifact := telemetry.NewBenchArtifact(*rev, results)
	if err := writeOutput(*out, artifact.WriteJSON); err != nil {
		fatal(err)
	}
	if *out != "-" {
		fmt.Printf("bench artifact written to %s (%d benchmarks, rev %s)\n", *out, len(results), *rev)
	}
}

// benchdiffCmd compares two bench artifacts against tolerance budgets and
// exits 1 when the new one regresses (0 with -advisory, so CI can surface
// a diff without blocking).
func benchdiffCmd(args []string) {
	fs := newFlagSet("benchdiff", "[-ns-pct F] [-bytes-pct F] [-allocs-pct F] [-min-ns F] [-ns-advisory] [-advisory] old.json new.json")
	def := telemetry.DefaultBenchBudget()
	nsPct := fs.Float64("ns-pct", def.NsPct, "allowed fractional ns/op growth (0.30 = +30%)")
	bytesPct := fs.Float64("bytes-pct", def.BytesPct, "allowed fractional B/op growth")
	allocsPct := fs.Float64("allocs-pct", def.AllocsPct, "allowed fractional allocs/op growth")
	minNs := fs.Float64("min-ns", def.MinNsPerOp, "ns/op noise floor below which time deltas are exempt")
	nsAdvisory := fs.Bool("ns-advisory", false, "report ns/op regressions without failing (allocs and bytes stay enforcing)")
	advisory := fs.Bool("advisory", false, "report regressions but exit 0")
	fs.Parse(args)
	if fs.NArg() != 2 {
		badUsage(fs, "want exactly two artifact paths: old.json new.json")
	}

	oldA, err := telemetry.LoadBenchArtifact(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	newA, err := telemetry.LoadBenchArtifact(fs.Arg(1))
	if err != nil {
		fatal(err)
	}
	budget := telemetry.BenchBudget{
		NsPct: *nsPct, BytesPct: *bytesPct, AllocsPct: *allocsPct,
		MinNsPerOp: *minNs, NsAdvisory: *nsAdvisory, NsAbs: def.NsAbs,
	}
	deltas, regressed := telemetry.CompareBench(oldA, newA, budget)
	fmt.Printf("benchdiff %s (%s) -> %s (%s)\n", oldA.Rev, oldA.CreatedAt, newA.Rev, newA.CreatedAt)
	fmt.Print(telemetry.FormatBenchDeltas(deltas))
	if regressed {
		if *advisory {
			fmt.Println("REGRESSION over budget (advisory mode: exiting 0)")
			return
		}
		fmt.Println("REGRESSION over budget")
		os.Exit(1)
	}
	fmt.Println("within budget")
}

// checkmetricsCmd validates a Prometheus text exposition (a saved
// /metrics response); the CI telemetry smoke job pipes curl output
// through it.
func checkmetricsCmd(args []string) {
	fs := newFlagSet("checkmetrics", "[file]")
	fs.Parse(args)
	if fs.NArg() > 1 {
		badUsage(fs, fmt.Sprintf("unexpected argument %q", fs.Arg(1)))
	}
	var r io.Reader = os.Stdin
	name := "stdin"
	if fs.NArg() == 1 && fs.Arg(0) != "-" {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r, name = f, fs.Arg(0)
	}
	n, err := telemetry.ParsePrometheus(r)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", name, err))
	}
	fmt.Printf("%s: valid Prometheus text exposition, %d sample(s)\n", name, n)
}
