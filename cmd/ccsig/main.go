// Command ccsig classifies TCP flows as experiencing self-induced or
// external congestion from server-side packet captures, using the TCP
// congestion-signatures technique (IMC '17).
//
// Usage:
//
//	ccsig train [-quick] [-runs N] [-threshold F] -o model.json
//	ccsig classify -model model.json -server 10.0.0.2 trace.pcap...
//	ccsig serve -model model.json -server 10.0.0.2 [-replay] [trace.pcap | -]
//	ccsig inspect -model model.json
//	ccsig testbed [-quick] [-runs N] [-csv] [-o out.csv] [-j N] [-checkpoint DIR] [-resume]
//	ccsig figures [-scale quick|full|paper] [-only fig1,fig3,...] [-j N] [-checkpoint DIR] [-resume]
//	ccsig faults [-quick] [-faults ge-loss,flap,...] [-j N]
//	ccsig conformance [-seed N] [-j N] [-o report.json]
//	ccsig trace [-seed N] [-cong N] -o trace.json
//	ccsig metrics [-seed N] [-scenario both]
//	ccsig bench [-rev LABEL] [-reps N] -o BENCH_rev.json
//	ccsig benchdiff [-advisory] old.json new.json
//	ccsig checkmetrics [file]
//
// train fits the decision tree on emulated controlled experiments
// reproducing the paper's testbed; classify analyzes pcap files captured at
// the data sender (e.g. a speed-test server) and prints one verdict per
// flow (-json for NDJSON); serve classifies the same captures as a stream —
// bounded per-flow state, verdicts emitted the moment each flow's slow
// start ends, byte-identical to classify -json; inspect prints the tree.
//
// testbed runs the paper's §3 controlled-experiment sweep and prints
// per-run features (-csv) or the trained classifier's quality; figures
// regenerates every figure and table of the evaluation (§3 testbed,
// Dispute2014, TSLP2017), printing the rows the paper plots; faults
// re-runs the controlled experiments under injected network faults
// (bursty loss, link flaps, reordering, duplication, corruption) and
// reports how the signature's accuracy holds up per regime; trace runs one instrumented experiment and exports a
// Perfetto-compatible Chrome trace (plus optional CSV time series);
// metrics runs instrumented experiments and prints their metric
// snapshots. trace and metrics output is a pure function of the seed:
// re-running with the same flags is byte-identical.
//
// bench, benchdiff and checkmetrics serve the wall-clock telemetry
// plane: bench emits a versioned perf-trajectory artifact from the
// hot-path micro-benchmarks, benchdiff gates two artifacts against
// regression budgets, and checkmetrics validates a saved Prometheus
// /metrics exposition.
//
// The long-running subcommands (testbed, figures, faults, conformance)
// share one flag block: -j N parallel runs (output is identical at any
// N); -checkpoint DIR to persist completed chunks, so an interrupted run
// continues with -resume and ends byte-identical to an uninterrupted one;
// and -admin ADDR to serve live /metrics, /progress and /debug/pprof
// while they run (off by default, never alters sim-time outputs).
// SIGINT/SIGTERM drain a checkpointed run and exit 3; a second signal
// exits immediately. testbed and figures also take -cpuprofile,
// -memprofile and -trace.
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"time"

	"tcpsig"
	"tcpsig/internal/checkpoint"
	"tcpsig/internal/telemetry"
	"tcpsig/internal/testbed"
)

func main() {
	telemetry.InitLogging("ccsig", false)
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "train":
		trainCmd(os.Args[2:])
	case "classify":
		classifyCmd(os.Args[2:])
	case "serve":
		serveCmd(os.Args[2:])
	case "inspect":
		inspectCmd(os.Args[2:])
	case "summarize":
		summarizeCmd(os.Args[2:])
	case "testbed":
		testbedCmd(os.Args[2:])
	case "figures":
		figuresCmd(os.Args[2:])
	case "faults":
		faultsCmd(os.Args[2:])
	case "conformance":
		conformanceCmd(os.Args[2:])
	case "trace":
		traceCmd(os.Args[2:])
	case "metrics":
		metricsCmd(os.Args[2:])
	case "bench":
		benchCmd(os.Args[2:])
	case "benchdiff":
		benchdiffCmd(os.Args[2:])
	case "checkmetrics":
		checkmetricsCmd(os.Args[2:])
	case "help", "-h", "-help", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "ccsig: unknown command %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: ccsig <command> [flags]

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
`)
}

// newFlagSet builds a flag set with consistent usage output. Bad flags
// exit with status 2 (flag.ExitOnError) after printing the synopsis.
func newFlagSet(name, synopsis string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ccsig %s %s\n\nflags:\n", name, synopsis)
		fs.PrintDefaults()
	}
	return fs
}

// badUsage reports a usage error for a subcommand and exits 2.
func badUsage(fs *flag.FlagSet, msg string) {
	fmt.Fprintf(os.Stderr, "ccsig %s: %s\n\n", fs.Name(), msg)
	fs.Usage()
	os.Exit(2)
}

func trainCmd(args []string) {
	fs := newFlagSet("train", "[-quick] [-runs N] [-threshold F] [-seed N] [-data in.csv] [-export-data out.csv] [-v] -o model.json")
	quick := fs.Bool("quick", false, "small parameter grid (seconds instead of minutes)")
	runs := fs.Int("runs", 0, "runs per parameter combination (default 10, paper used 50)")
	threshold := fs.Float64("threshold", 0.8, "slow-start throughput labeling threshold")
	seed := fs.Int64("seed", 1, "random seed")
	out := fs.String("o", "model.json", "output model path")
	dataIn := fs.String("data", "", "train from a labeled CSV (normdiff,cov,label) instead of the emulated testbed")
	dataOut := fs.String("export-data", "", "also write the training examples as CSV")
	verbose := fs.Bool("v", false, "print progress")
	fs.Parse(args)

	var examples []tcpsig.Example
	var err error
	if *dataIn != "" {
		f, ferr := os.Open(*dataIn)
		if ferr != nil {
			fatal(ferr)
		}
		examples, err = tcpsig.ReadExamplesCSV(f)
		f.Close()
	} else {
		opt := tcpsig.TrainTestbedOptions{
			RunsPerConfig: *runs,
			Threshold:     *threshold,
			Quick:         *quick,
			Seed:          *seed,
		}
		if *verbose {
			opt.Progress = func(done, total int) { fmt.Fprintf(os.Stderr, "\r%d/%d", done, total) }
		}
		examples, err = tcpsig.TestbedExamples(opt)
		if *verbose {
			fmt.Fprintln(os.Stderr)
		}
	}
	if err != nil {
		fatal(err)
	}

	if *dataOut != "" {
		err := checkpoint.WriteFileAtomic(*dataOut, func(w io.Writer) error {
			return tcpsig.WriteExamplesCSV(w, examples)
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("dataset written to %s (%d examples)\n", *dataOut, len(examples))
	}

	clf, err := tcpsig.Train(examples, tcpsig.TrainOptions{MinLeaf: 2, Threshold: *threshold})
	if err != nil {
		fatal(err)
	}
	if err := clf.SaveFile(*out); err != nil {
		fatal(err)
	}
	fmt.Printf("model written to %s (threshold %.2f, %d examples)\n", *out, clf.Threshold(), len(examples))
	fmt.Print(clf.Tree())
}

func classifyCmd(args []string) {
	fs := newFlagSet("classify", "[-model model.json] [-json] -server IPv4 trace.pcap...")
	modelPath := fs.String("model", "", "model file from 'ccsig train' (default: train a quick model)")
	server := fs.String("server", "", "server IPv4 address (data sender) in the capture")
	asJSON := fs.Bool("json", false, "emit one NDJSON verdict per flow (the schema ccsig serve streams)")
	fs.Parse(args)
	if *server == "" {
		badUsage(fs, "-server is required")
	}
	if fs.NArg() == 0 {
		badUsage(fs, "no pcap files given")
	}

	var clf *tcpsig.Classifier
	var err error
	if *modelPath != "" {
		clf, err = tcpsig.LoadFile(*modelPath)
	} else {
		fmt.Fprintln(os.Stderr, "no -model given; training a quick model on the emulated testbed...")
		clf, err = tcpsig.TrainOnTestbed(tcpsig.TrainTestbedOptions{Quick: true})
	}
	if err != nil {
		fatal(err)
	}

	exit := 0
	for _, path := range fs.Args() {
		verdicts, err := clf.ClassifyPcapFile(path, *server)
		if err != nil {
			// A corrupt tail still yields verdicts for the flows read
			// before the damage; report the error and keep them.
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			exit = 1
		}
		for _, fv := range verdicts {
			if *asJSON {
				if err := writeVerdictNDJSON(os.Stdout, fv); err != nil {
					fatal(err)
				}
				continue
			}
			id := fmt.Sprintf("%s:%d > %s:%d", fv.SrcIP, fv.SrcPort, fv.DstIP, fv.DstPort)
			v := fv.Verdict
			if v.Class < 0 {
				fmt.Printf("%s  %-42s  skipped: %v\n", path, id, fv.Err)
				continue
			}
			class := tcpsig.ClassName(v.Class)
			if v.Reason != tcpsig.ReasonNone {
				class += "?"
			}
			fmt.Printf("%s  %-42s  %-12s conf=%.2f normdiff=%.3f cov=%.3f samples=%d minRTT=%v maxRTT=%v",
				path, id, class, v.Confidence,
				v.Features.NormDiff, v.Features.CoV, v.Features.Samples,
				v.Features.MinRTT, v.Features.MaxRTT)
			if v.Reason != tcpsig.ReasonNone {
				fmt.Printf(" degraded=%s", v.Reason)
			}
			fmt.Println()
		}
	}
	os.Exit(exit)
}

func summarizeCmd(args []string) {
	fs := newFlagSet("summarize", "-server IPv4 trace.pcap...")
	server := fs.String("server", "", "server IPv4 address (data sender) in the capture")
	fs.Parse(args)
	if *server == "" {
		badUsage(fs, "-server is required")
	}
	if fs.NArg() == 0 {
		badUsage(fs, "no pcap files given")
	}
	exit := 0
	for _, path := range fs.Args() {
		summaries, err := tcpsig.SummarizePcapFile(path, *server)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			exit = 1
			continue
		}
		for _, s := range summaries {
			fmt.Printf("%s  %s:%d > %s:%d\n", path, s.SrcIP, s.SrcPort, s.DstIP, s.DstPort)
			fmt.Printf("  duration=%v bytes=%d goodput=%.2f Mbps\n", s.Duration.Round(time.Millisecond), s.BytesAcked, s.ThroughputBps/1e6)
			fmt.Printf("  slow-start: rate=%.2f Mbps samples=%d", s.SlowStartBps/1e6, s.RTTSamples)
			if s.HasRetransmit {
				fmt.Printf(" first-retransmit=%v", s.FirstRetransmitAt.Round(time.Millisecond))
			} else {
				fmt.Printf(" no-retransmission")
			}
			fmt.Println()
			if s.FeaturesValid {
				fmt.Printf("  features: normdiff=%.3f cov=%.3f minRTT=%v maxRTT=%v\n",
					s.Features.NormDiff, s.Features.CoV, s.Features.MinRTT, s.Features.MaxRTT)
			} else {
				fmt.Println("  features: invalid (fewer than 10 slow-start RTT samples)")
			}
		}
	}
	os.Exit(exit)
}

func inspectCmd(args []string) {
	fs := newFlagSet("inspect", "[-model model.json]")
	modelPath := fs.String("model", "model.json", "model file")
	fs.Parse(args)
	clf, err := tcpsig.LoadFile(*modelPath)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("labeling threshold: %.2f\n", clf.Threshold())
	fmt.Print(clf.Tree())
}

func faultsCmd(args []string) {
	fs := newFlagSet("faults", "[-quick] [-runs N] [-threshold F] [-seed N] [-faults name,name,...] [-j N] [-checkpoint DIR] [-resume] [-chunk N] [-admin ADDR] [-v]")
	quick := fs.Bool("quick", false, "small parameter grid (seconds instead of minutes)")
	runs := fs.Int("runs", 0, "runs per parameter combination and scenario")
	threshold := fs.Float64("threshold", 0.8, "slow-start throughput labeling threshold")
	seed := fs.Int64("seed", 1, "random seed")
	names := fs.String("faults", "", "comma-separated fault regimes to test (default: all)")
	sf := addSweepFlags(fs)
	verbose := fs.Bool("v", false, "print progress")
	sf.parse(args)
	telemetry.InitLogging("ccsig", *verbose, "sub", "faults", "seed", *seed)

	admin, spec := sf.start()
	defer sf.stop()

	sw := testbed.SweepOptions{RunsPerConfig: *runs, Seed: *seed, Workers: sf.workers(), Checkpoint: spec, LiveMetrics: admin.LiveMetrics()}
	if *quick {
		sw.Rates = []float64{50}
		sw.Losses = []float64{0}
		sw.Latencies = []time.Duration{20 * time.Millisecond}
		sw.Buffers = []time.Duration{20 * time.Millisecond, 100 * time.Millisecond}
		sw.Duration = 5 * time.Second
		if sw.RunsPerConfig == 0 {
			sw.RunsPerConfig = 3
		}
	}

	regimes := testbed.DefaultFaultRegimes()
	if *names != "" {
		byName := make(map[string]testbed.FaultRegime, len(regimes))
		var known []string
		for _, r := range regimes {
			byName[r.Name] = r
			known = append(known, r.Name)
		}
		var picked []testbed.FaultRegime
		for _, n := range strings.Split(*names, ",") {
			n = strings.TrimSpace(n)
			r, ok := byName[n]
			if !ok {
				sf.check(fmt.Errorf("unknown fault regime %q (available: %s)", n, strings.Join(known, ", ")))
			}
			picked = append(picked, r)
		}
		regimes = picked
	}

	opt := testbed.FaultSweepOptions{Sweep: sw, Regimes: regimes, Threshold: *threshold}
	if *verbose || admin != nil {
		opt.Progress = func(regime string, done, total int) {
			if *verbose {
				slog.Info("sweeping regime", "regime", regime, "done", done, "total", total)
			}
			admin.RunDone("regimes", done, total)
		}
	}
	report, err := testbed.SweepFaults(opt)
	sf.check(err)
	fmt.Printf("classifier trained on clean sweep (threshold %.2f):\n%s\n", report.Threshold, report.Tree.String())
	fmt.Print(report.String())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ccsig:", err)
	os.Exit(1)
}
