package main

import (
	"fmt"
	"os"
	"slices"
	"strings"

	"tcpsig/internal/checkpoint"
	"tcpsig/internal/core"
	"tcpsig/internal/experiments"
	"tcpsig/internal/mlab"
	"tcpsig/internal/stats"
	"tcpsig/internal/telemetry"
	"tcpsig/internal/testbed"
)

// figureRoster is every experiment figures runs, in output order. It is
// the one list behind -only validation, the flag's help and the run loop.
var figureRoster = []struct {
	name string
	run  func(*runner)
}{
	{"fig1", (*runner).fig1},
	{"fig3", (*runner).fig3},
	{"fig4", (*runner).fig4},
	{"feature-ablation", (*runner).featureAblation},
	{"depth-ablation", (*runner).depthAblation},
	{"multiplexing", (*runner).multiplexing},
	{"fig5", (*runner).fig5},
	{"fig7", (*runner).fig7},
	{"fig8", (*runner).fig8},
	{"fig9", (*runner).fig9},
	{"fig6", (*runner).fig6},
	{"tslp-accuracy", (*runner).tslpAccuracy},
	{"cc-ablation", (*runner).ccAblation},
}

// figuresCmd regenerates every figure and table of the paper's evaluation
// on the emulator, printing the rows and series the paper plots. Each
// emulation stage (sweep, fig1, dispute, tslp, multiplexing, variants)
// checkpoints under its own name, and each figure runs the stages it
// needs once.
func figuresCmd(args []string) {
	names := make([]string, len(figureRoster))
	for i, e := range figureRoster {
		names[i] = e.name
	}
	known := strings.Join(names, ",")

	fs := newFlagSet("figures", "[-scale quick|full|paper] [-only "+known+"] [-seed N] [-progress] [-j N] [-checkpoint DIR] [-resume] [-chunk N] [-admin ADDR] [-cpuprofile f] [-memprofile f] [-trace f]")
	scaleFlag := fs.String("scale", "quick", "experiment scale: quick, full, or paper")
	only := fs.String("only", "", "comma-separated experiment subset (default all)")
	seed := fs.Int64("seed", 1, "random seed")
	progress := fs.Bool("progress", false, "print progress for long sweeps")
	sf := addSweepFlags(fs).withProfiles()
	sf.parse(args)

	var scale experiments.Scale
	switch *scaleFlag {
	case "quick":
		scale = experiments.Quick
	case "full":
		scale = experiments.Full
	case "paper":
		scale = experiments.Paper
	default:
		badUsage(fs, fmt.Sprintf("unknown scale %q", *scaleFlag))
	}
	want := map[string]bool{}
	if *only != "" {
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			if !slices.Contains(names, name) {
				badUsage(fs, fmt.Sprintf("unknown experiment %q (known: %s)", name, known))
			}
			want[name] = true
		}
	}

	telemetry.InitLogging("ccsig", *progress, "sub", "figures", "seed", *seed, "scale", *scaleFlag)
	_, spec := sf.start()
	defer sf.stop()

	r := &runner{scale: scale, seed: *seed, workers: sf.workers(), ckpt: spec, check: sf.check}
	if *progress {
		r.progress = func(done, total int) { fmt.Fprintf(os.Stderr, "\r%d/%d", done, total) }
	}
	for _, e := range figureRoster {
		if len(want) == 0 || want[e.name] {
			e.run(r)
		}
	}
}

type runner struct {
	scale    experiments.Scale
	seed     int64
	workers  int
	progress func(done, total int)
	ckpt     *checkpoint.Spec
	check    func(error)

	sweepResults []*testbed.Result
	clf          *core.Classifier
	disputeTests []mlab.DisputeTest
	tslpTests    []mlab.TSLPTest
}

func (r *runner) header(title string) {
	fmt.Printf("\n=== %s (scale=%s) ===\n", title, r.scale)
}

// exec builds the checkpoint-aware executor for one stage; seed varies by
// stage (the historical per-stage offsets), the checkpoint root is shared.
func (r *runner) exec(seed int64) experiments.Exec {
	return experiments.Exec{Scale: r.scale, Seed: seed, Workers: r.workers, Checkpoint: r.ckpt}
}

// sweep runs the controlled-experiment sweep and trains the testbed model,
// once.
func (r *runner) sweep() {
	if r.sweepResults != nil {
		return
	}
	fmt.Fprintf(os.Stderr, "running controlled-experiment sweep...\n")
	results, err := r.exec(r.seed).SweepResults(r.progress)
	r.check(err)
	r.sweepResults = results
	clf, err := experiments.TrainOnResults(r.sweepResults, 0.8)
	if err != nil {
		r.check(fmt.Errorf("training failed: %w", err))
	}
	r.clf = clf
	fmt.Fprintf(os.Stderr, "sweep: %d valid runs; model:\n%s", len(r.sweepResults), clf.Tree)
}

// dispute generates the Dispute2014 dataset, once.
func (r *runner) dispute() {
	if r.disputeTests != nil {
		return
	}
	fmt.Fprintf(os.Stderr, "generating Dispute2014 dataset...\n")
	tests, err := r.exec(r.seed + 10000).DisputeData(r.progress)
	r.check(err)
	r.disputeTests = tests
	fmt.Fprintf(os.Stderr, "dispute2014: %d tests\n", len(r.disputeTests))
}

// tslp generates the TSLP2017 campaign, once.
func (r *runner) tslp() {
	if r.tslpTests != nil {
		return
	}
	fmt.Fprintf(os.Stderr, "generating TSLP2017 campaign...\n")
	tests, err := r.exec(r.seed + 20000).TSLPData(r.progress)
	r.check(err)
	r.tslpTests = tests
	fmt.Fprintf(os.Stderr, "tslp2017: %d tests\n", len(r.tslpTests))
}

func printCDF(name string, cdf []stats.CDFPoint) {
	fmt.Printf("# %s: x p\n", name)
	for _, pt := range cdf {
		fmt.Printf("%.4f %.4f\n", pt.X, pt.P)
	}
}

func (r *runner) fig1() {
	r.header("Figure 1: slow-start RTT signatures (20 Mbps access, 100 ms buffer)")
	res, err := r.exec(r.seed).Fig1()
	r.check(err)
	printCDF("fig1a max-min RTT (ms), self-induced", res.MaxMinDiffMs[testbed.SelfInduced])
	printCDF("fig1a max-min RTT (ms), external", res.MaxMinDiffMs[testbed.External])
	printCDF("fig1b CoV, self-induced", res.CoV[testbed.SelfInduced])
	printCDF("fig1b CoV, external", res.CoV[testbed.External])
}

func (r *runner) fig3() {
	r.sweep()
	r.header("Figure 3: precision/recall vs congestion threshold")
	fmt.Println("threshold  P(self)  R(self)  P(ext)  R(ext)  train  test")
	for _, p := range experiments.Fig3(r.sweepResults, nil, r.seed) {
		fmt.Printf("%9.2f  %7.3f  %7.3f  %6.3f  %6.3f  %5d  %4d\n",
			p.Threshold, p.PrecisionSelf, p.RecallSelf, p.PrecisionExt, p.RecallExt, p.TrainN, p.TestN)
	}
}

func (r *runner) fig4() {
	r.sweep()
	r.header("Figure 4: NormDiff vs CoV feature plane")
	fmt.Println("normdiff  cov  class")
	for _, p := range experiments.Fig4(r.sweepResults) {
		fmt.Printf("%.4f %.4f %s\n", p.NormDiff, p.CoV, testbed.ClassName(p.Scenario))
	}
}

func (r *runner) fig5() {
	r.dispute()
	r.header("Figure 5: diurnal mean NDT throughput (Mbps)")
	for _, row := range experiments.Fig5(r.disputeTests) {
		fmt.Printf("%s/%s %s %s:", row.Site.Transit, row.Site.City, row.ISP, row.Period)
		for h := 0; h < 24; h++ {
			if v, ok := row.ByHour[h]; ok {
				fmt.Printf(" %d=%.1f", h, v)
			}
		}
		fmt.Println()
	}
}

func (r *runner) fig6() {
	r.tslp()
	r.header("Figure 6: TSLP latency and NDT throughput timeline")
	fmt.Println("hours  farRTT(ms)  nearRTT(ms)  tput(Mbps)  congested")
	for _, p := range experiments.Fig6(r.tslpTests) {
		fmt.Printf("%7.2f  %9.2f  %10.2f  %9.2f  %v\n",
			p.At.Hours(), p.FarRTTms, p.NearRTTms, p.Throughput, p.Congested)
	}
}

func (r *runner) fig7() {
	r.sweep()
	r.dispute()
	r.header("Figure 7: fraction classified self-induced (testbed model)")
	fmt.Println("site            isp         period   frac-self  n")
	for _, row := range experiments.Fig7(r.disputeTests, r.clf) {
		fmt.Printf("%-15s %-11s %-8s %9.2f  %d\n",
			row.Site.Transit+"/"+row.Site.City, row.ISP, row.Period, row.FracSelf, row.N)
	}
}

func (r *runner) fig8() {
	r.sweep()
	r.dispute()
	r.header("Figure 8: median throughput of classified flows (Mbps)")
	fmt.Println("transit  isp         period   med(self)  med(ext)  n(self)  n(ext)")
	for _, row := range experiments.Fig8(r.disputeTests, r.clf) {
		fmt.Printf("%-8s %-11s %-8s %9.1f  %8.1f  %7d  %6d\n",
			row.Transit, row.ISP, row.Period, row.MedianSelf, row.MedianExt, row.NSelf, row.NExt)
	}
}

func (r *runner) fig9() {
	r.dispute()
	r.header("Figure 9: fraction self-induced (Dispute2014-trained model)")
	fmt.Println("site            isp         period   frac-self  n")
	for _, row := range experiments.Fig9(r.disputeTests, r.seed) {
		fmt.Printf("%-15s %-11s %-8s %9.2f  %d\n",
			row.Site.Transit+"/"+row.Site.City, row.ISP, row.Period, row.FracSelf, row.N)
	}
}

func (r *runner) multiplexing() {
	r.sweep()
	r.header("Section 3.3: multiplexing")
	fmt.Println("variant            frac-expected  runs")
	rows, err := r.exec(r.seed + 30000).Multiplexing(r.clf)
	r.check(err)
	for _, row := range rows {
		name := fmt.Sprintf("cong-flows=%d", row.CongFlows)
		if row.AccessCross > 0 {
			name = fmt.Sprintf("access-cross=%d", row.AccessCross)
		}
		fmt.Printf("%-18s %13.2f  %d\n", name, row.FracExpected, row.Runs)
	}
}

func (r *runner) tslpAccuracy() {
	r.sweep()
	r.tslp()
	r.header("Section 5.4: TSLP2017 accuracy (testbed model)")
	acc := experiments.EvalTSLP(r.tslpTests, r.clf)
	fmt.Printf("self-induced: %d/%d = %.3f (paper: ~0.99)\n", acc.SelfCorrect, acc.SelfTotal, acc.AccSelf())
	fmt.Printf("external:     %d/%d = %.3f (paper: 0.75-0.85)\n", acc.ExtCorrect, acc.ExtTotal, acc.AccExt())
	fmt.Printf("unlabeled (gray zone / invalid): %d\n", acc.Unlabeled)
}

func (r *runner) featureAblation() {
	r.sweep()
	r.header("Ablation: single feature vs both (§3.3 'why both metrics')")
	fmt.Println("features       accuracy  test-n")
	for _, row := range experiments.FeatureAblation(r.sweepResults, 0.8, r.seed) {
		fmt.Printf("%-14s %8.3f  %d\n", row.Features, row.Accuracy, row.TestN)
	}
}

func (r *runner) depthAblation() {
	r.sweep()
	r.header("Ablation: tree depth (§3.2)")
	fmt.Println("depth  accuracy")
	for _, row := range experiments.DepthAblation(r.sweepResults, 0.8, r.seed) {
		fmt.Printf("%5d  %8.3f\n", row.Depth, row.Accuracy)
	}
}

func (r *runner) ccAblation() {
	r.header("Ablation: congestion control & AQM (§6 limitations)")
	fmt.Println("variant    normdiff  cov    minRTT(ms)  maxRTT(ms)  valid/runs")
	rows, err := r.exec(r.seed + 40000).CCAblation()
	r.check(err)
	for _, row := range rows {
		fmt.Printf("%-10s %8.3f  %.3f  %10.1f  %10.1f  %d/%d\n",
			row.Variant, row.NormDiff, row.CoV, row.MinRTTms, row.MaxRTTms, row.ValidRuns, row.Runs)
	}
}
