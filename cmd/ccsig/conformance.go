package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strconv"
	"strings"

	"tcpsig/internal/checkpoint"
	"tcpsig/internal/conformance"
	"tcpsig/internal/telemetry"
)

// conformanceCmd runs the tier-2 statistical conformance suite (or, with
// -generate, regenerates its tolerance bands). The suite re-runs the
// paper's quick-scale experiments and checks the headline results against
// versioned tolerance bands plus structural invariants; the JSON report is
// a pure function of the seed. With -checkpoint the suite's emulation
// stages persist completed chunks, so an interrupted run (exit 3) resumes
// with -resume instead of recomputing.
func conformanceCmd(args []string) {
	fs := newFlagSet("conformance", "[-seed N] [-j N] [-o out.json] [-expected bands.json] [-checkpoint DIR] [-resume] [-chunk N] [-admin ADDR] [-v] | -generate [-seeds 1,2,3]")
	seed := fs.Int64("seed", 1, "suite seed (the report is byte-identical per seed)")
	out := fs.String("o", "", "write the JSON report (or, with -generate, the bands) here instead of stdout")
	expectedPath := fs.String("expected", "", "tolerance-band JSON to evaluate against (default: embedded quick-scale baseline)")
	generate := fs.Bool("generate", false, "regenerate tolerance bands from -seeds instead of running the suite")
	seedList := fs.String("seeds", "1,2,3", "comma-separated seeds for -generate")
	checkList := fs.String("checks", "", "comma-separated check names to run (default: all)")
	sf := addSweepFlags(fs)
	verbose := fs.Bool("v", false, "print stage progress to stderr")
	sf.parse(args)
	if fs.NArg() != 0 {
		badUsage(fs, "unexpected arguments")
	}
	if *generate && *sf.ckptDir != "" {
		badUsage(fs, "-checkpoint does not apply to -generate")
	}
	workers := sf.workers()
	var onlyChecks []string
	if *checkList != "" {
		for _, c := range strings.Split(*checkList, ",") {
			onlyChecks = append(onlyChecks, strings.TrimSpace(c))
		}
	}

	// The report and the bands are written atomically: a crash mid-write
	// never clobbers a previous good file with a torn one.
	write := func(render func(f io.Writer) error) {
		path := *out
		if path == "" {
			path = "-"
		}
		if err := checkpoint.WriteFileAtomic(path, render); err != nil {
			fatal(err)
		}
	}

	if *generate {
		var seeds []int64
		for _, s := range strings.Split(*seedList, ",") {
			n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
			if err != nil {
				badUsage(fs, fmt.Sprintf("bad -seeds entry %q", s))
			}
			seeds = append(seeds, n)
		}
		exp, err := conformance.GenerateExpectedFrom(func(seed int64) conformance.Source {
			return &conformance.EmulatedSource{Seed: seed, Workers: workers}
		}, seeds, onlyChecks...)
		if err != nil {
			fatal(err)
		}
		write(exp.WriteJSON)
		return
	}

	telemetry.InitLogging("ccsig", *verbose, "sub", "conformance", "seed", *seed)
	admin, spec := sf.start()
	defer sf.stop()

	opt := conformance.Options{Seed: *seed, Workers: workers, Checks: onlyChecks}
	if *verbose || spec != nil || admin != nil {
		src := &conformance.EmulatedSource{Seed: *seed, Workers: workers, Checkpoint: spec}
		if *verbose {
			src.Progress = func(stage string) {
				slog.Info("running stage", "stage", stage)
			}
		}
		opt.Source = src
	}
	if *expectedPath != "" {
		f, err := os.Open(*expectedPath)
		if err != nil {
			fatal(err)
		}
		var exp conformance.Expected
		err = json.NewDecoder(f).Decode(&exp)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("parsing %s: %w", *expectedPath, err))
		}
		opt.Expected = &exp
	}

	rep, err := conformance.Run(opt)
	sf.check(err)
	write(func(f io.Writer) error {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		b = append(b, '\n')
		_, err = f.Write(b)
		return err
	})
	fmt.Fprint(os.Stderr, rep.Summary())
	if !rep.Pass {
		os.Exit(1)
	}
}
