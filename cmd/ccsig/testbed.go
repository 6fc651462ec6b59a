package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"tcpsig/internal/checkpoint"
	"tcpsig/internal/dtree"
	"tcpsig/internal/features"
	"tcpsig/internal/telemetry"
	"tcpsig/internal/testbed"
)

// testbedCmd runs the paper's §3 controlled experiments: the access-link
// parameter sweep with self-induced and external congestion scenarios,
// printing per-run features (-csv) or the trained classifier's quality.
// The checkpoint tree lives under DIR/sweep/.
func testbedCmd(args []string) {
	fs := newFlagSet("testbed", "[-runs N] [-threshold F] [-seed N] [-quick] [-csv] [-o file] [-j N] [-checkpoint DIR] [-resume] [-chunk N] [-admin ADDR] [-cpuprofile f] [-memprofile f] [-trace f]")
	runs := fs.Int("runs", 5, "runs per parameter combination (paper: 50)")
	threshold := fs.Float64("threshold", 0.8, "labeling threshold")
	seed := fs.Int64("seed", 1, "random seed")
	quick := fs.Bool("quick", false, "reduced parameter grid")
	csv := fs.Bool("csv", false, "emit per-run CSV instead of a summary")
	outFile := fs.String("o", "", "with -csv, write the CSV atomically to this file instead of stdout")
	sf := addSweepFlags(fs).withProfiles()
	sf.parse(args)
	if *outFile != "" && !*csv {
		badUsage(fs, "-o requires -csv")
	}
	telemetry.InitLogging("ccsig", false, "sub", "testbed", "seed", *seed)

	admin, spec := sf.start()
	defer sf.stop()

	opt := testbed.SweepOptions{
		RunsPerConfig: *runs,
		Seed:          *seed,
		Workers:       sf.workers(),
		Checkpoint:    spec.Stage("sweep"),
		LiveMetrics:   admin.LiveMetrics(),
		Progress: func(done, total int) {
			fmt.Fprintf(os.Stderr, "\r%d/%d", done, total)
			admin.RunDone("sweep", done, total)
		},
	}
	if *quick {
		opt = opt.QuickGrid()
	}

	// In CSV mode rows stream to the output as chunks complete, so no run
	// ever holds the whole dataset in memory; with -o the file is staged
	// and only published whole.
	var csvOut io.Writer = os.Stdout
	var staged *checkpoint.AtomicFile
	nStreamed := 0
	if *csv {
		if *outFile != "" {
			var err error
			staged, err = checkpoint.CreateAtomic(*outFile)
			sf.check(err)
			csvOut = staged
		}
		fmt.Fprintln(csvOut, "scenario,rate_mbps,loss,latency_ms,buffer_ms,normdiff,cov,slowstart_mbps,flow_mbps,label")
		opt.Stream = func(r *testbed.Result) {
			nStreamed++
			fmt.Fprintf(csvOut, "%s,%.0f,%.4f,%.0f,%.0f,%.4f,%.4f,%.2f,%.2f,%s\n",
				testbed.ClassName(r.Scenario),
				r.Config.Access.RateMbps,
				r.Config.Access.Loss,
				float64(r.Config.Access.Latency)/float64(time.Millisecond),
				float64(r.Config.Access.Buffer)/float64(time.Millisecond),
				r.Features.NormDiff, r.Features.CoV,
				r.SlowStartBps/1e6, r.FlowBps/1e6,
				testbed.ClassName(r.Label(*threshold)))
		}
	}

	results, err := testbed.SweepCheckpointed(opt)
	if err != nil {
		staged.Abort()
		sf.check(err)
	}

	if *csv {
		fmt.Fprintf(os.Stderr, "\n%d valid runs\n", nStreamed)
		if staged != nil {
			sf.check(staged.Commit())
			fmt.Fprintf(os.Stderr, "CSV written to %s\n", *outFile)
		}
		return
	}
	fmt.Fprintf(os.Stderr, "\n%d valid runs\n", len(results))

	ds := testbed.Dataset(results, *threshold)
	var nSelf, nExt int
	for _, e := range ds {
		if e.Label == testbed.SelfInduced {
			nSelf++
		} else {
			nExt++
		}
	}
	fmt.Printf("dataset at threshold %.2f: %d examples (%d self, %d external, %d filtered)\n",
		*threshold, len(ds), nSelf, nExt, len(results)-len(ds))

	rng := rand.New(rand.NewSource(*seed))
	train, test := dtree.TrainTestSplit(rng, ds, 0.7)
	tree, err := dtree.Train(train, dtree.Options{MaxDepth: 4, MinLeaf: 2, FeatureNames: features.Names()})
	if err != nil {
		sf.check(fmt.Errorf("train: %w", err))
	}
	fmt.Println("\ndecision tree:")
	fmt.Print(tree.String())
	eval := test
	if len(eval) == 0 {
		eval = train
	}
	c := tree.Evaluate(eval)
	fmt.Printf("\nholdout (%d examples): accuracy %.3f\n", len(eval), c.Accuracy())
	fmt.Printf("self-induced: precision %.3f recall %.3f\n", c.Precision(testbed.SelfInduced), c.Recall(testbed.SelfInduced))
	fmt.Printf("external:     precision %.3f recall %.3f\n", c.Precision(testbed.External), c.Recall(testbed.External))
}
