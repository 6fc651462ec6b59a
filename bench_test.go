package tcpsig

// The benchmark harness regenerates every figure and table of the paper's
// evaluation (one Benchmark per experiment; see DESIGN.md's experiment
// index) and reports the headline numbers through testing.B metrics, plus
// micro-benchmarks for the per-flow pipeline. Run with:
//
//	go test -bench=. -benchmem
//
// Experiments run at Quick scale so the whole suite stays in minutes; use
// ccsig figures -scale full|paper for bigger runs.

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"tcpsig/internal/benchkit"
	"tcpsig/internal/core"
	"tcpsig/internal/dtree"
	"tcpsig/internal/experiments"
	"tcpsig/internal/mlab"
	"tcpsig/internal/stats"
	"tcpsig/internal/testbed"
)

// Shared fixtures, built once: the controlled-experiment sweep and the
// testbed-trained model back several experiments.
var (
	fixtureOnce    sync.Once
	fixtureResults []*testbed.Result
	fixtureModel   *core.Classifier
)

func fixtures(b *testing.B) ([]*testbed.Result, *core.Classifier) {
	b.Helper()
	fixtureOnce.Do(func() {
		var err error
		fixtureResults, err = experiments.Exec{Scale: experiments.Quick, Seed: 1}.SweepResults(nil)
		if err != nil {
			b.Fatal(err)
		}
		m, err := experiments.TrainOnResults(fixtureResults, 0.8)
		if err != nil {
			panic(err)
		}
		fixtureModel = m
	})
	if len(fixtureResults) == 0 {
		b.Fatal("sweep fixture empty")
	}
	return fixtureResults, fixtureModel
}

func medianCDF(c []stats.CDFPoint) float64 {
	for _, p := range c {
		if p.P >= 0.5 {
			return p.X
		}
	}
	if len(c) == 0 {
		return 0
	}
	return c[len(c)-1].X
}

// BenchmarkFig1RTTSignatures regenerates Figure 1: the slow-start RTT
// signature CDFs for self-induced vs external congestion.
func BenchmarkFig1RTTSignatures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Exec{Scale: experiments.Quick, Seed: int64(i + 1)}.Fig1()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(medianCDF(r.MaxMinDiffMs[testbed.SelfInduced]), "self-maxmin-ms")
		b.ReportMetric(medianCDF(r.MaxMinDiffMs[testbed.External]), "ext-maxmin-ms")
		b.ReportMetric(medianCDF(r.CoV[testbed.SelfInduced]), "self-cov")
		b.ReportMetric(medianCDF(r.CoV[testbed.External]), "ext-cov")
	}
}

// BenchmarkFig3ThresholdSweep regenerates Figure 3: classifier precision and
// recall across congestion-labeling thresholds.
func BenchmarkFig3ThresholdSweep(b *testing.B) {
	results, _ := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts := experiments.Fig3(results, []float64{0.6, 0.7, 0.8}, int64(i+5))
		var pSelf, rSelf float64
		for _, p := range pts {
			pSelf += p.PrecisionSelf
			rSelf += p.RecallSelf
		}
		b.ReportMetric(pSelf/float64(len(pts)), "mean-precision-self")
		b.ReportMetric(rSelf/float64(len(pts)), "mean-recall-self")
	}
}

// BenchmarkFig4FeatureScatter regenerates Figure 4: the NormDiff/CoV plane.
func BenchmarkFig4FeatureScatter(b *testing.B) {
	results, _ := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts := experiments.Fig4(results)
		var nd [2]float64
		var n [2]int
		for _, p := range pts {
			nd[p.Scenario] += p.NormDiff
			n[p.Scenario]++
		}
		if n[0] > 0 && n[1] > 0 {
			b.ReportMetric(nd[0]/float64(n[0]), "self-normdiff")
			b.ReportMetric(nd[1]/float64(n[1]), "ext-normdiff")
		}
	}
}

// BenchmarkMultiplexing regenerates the §3.3 multiplexing table.
func BenchmarkMultiplexing(b *testing.B) {
	_, clf := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Exec{Scale: experiments.Quick, Seed: int64(i*1000 + 7)}.Multiplexing(clf)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rows {
			if row.CongFlows == 100 {
				b.ReportMetric(row.FracExpected, "ext-frac-100flows")
			}
			if row.CongFlows == 10 {
				b.ReportMetric(row.FracExpected, "ext-frac-10flows")
			}
			if row.AccessCross == 5 {
				b.ReportMetric(row.FracExpected, "self-frac-5cross")
			}
		}
	}
}

// BenchmarkFig5Diurnal regenerates Figure 5: diurnal NDT throughput.
func BenchmarkFig5Diurnal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tests, err := experiments.Exec{Scale: experiments.Quick, Seed: int64(i*100 + 50)}.DisputeData(nil)
		if err != nil {
			b.Fatal(err)
		}
		rows := experiments.Fig5(tests)
		// Report the Cogent/Comcast Jan-Feb peak vs off-peak gap.
		for _, row := range rows {
			if row.Site.Transit == "Cogent" && row.ISP == "Comcast" && row.Period == mlab.JanFeb {
				if off, ok := row.ByHour[3]; ok {
					b.ReportMetric(off, "offpeak-mbps")
				}
				if peak, ok := row.ByHour[21]; ok {
					b.ReportMetric(peak, "peak-mbps")
				}
			}
		}
	}
}

// disputeFixture caches one Dispute2014 dataset for Figures 7-9.
var (
	disputeOnce  sync.Once
	disputeTests []mlab.DisputeTest
)

func disputeData(b *testing.B) []mlab.DisputeTest {
	b.Helper()
	disputeOnce.Do(func() {
		var err error
		disputeTests, err = experiments.Exec{Scale: experiments.Quick, Seed: 2000}.DisputeData(nil)
		if err != nil {
			b.Fatal(err)
		}
	})
	if len(disputeTests) == 0 {
		b.Fatal("dispute fixture empty")
	}
	return disputeTests
}

// BenchmarkFig7Classification regenerates Figure 7: fraction classified
// self-induced per (site, ISP, period) with the testbed model.
func BenchmarkFig7Classification(b *testing.B) {
	_, clf := fixtures(b)
	tests := disputeData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig7(tests, clf)
		for _, row := range rows {
			if row.Site.Transit == "Cogent" && row.ISP == "Comcast" {
				if row.Period == mlab.JanFeb {
					b.ReportMetric(row.FracSelf, "cogent-comcast-during")
				} else {
					b.ReportMetric(row.FracSelf, "cogent-comcast-after")
				}
			}
		}
	}
}

// BenchmarkFig8Throughput regenerates Figure 8: median throughput of
// classified flows.
func BenchmarkFig8Throughput(b *testing.B) {
	_, clf := fixtures(b)
	tests := disputeData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig8(tests, clf)
		for _, row := range rows {
			if row.Transit == "Cogent" && row.ISP == "Comcast" && row.Period == mlab.MarApr {
				b.ReportMetric(row.MedianSelf, "marapr-self-mbps")
				b.ReportMetric(row.MedianExt, "marapr-ext-mbps")
			}
		}
	}
}

// BenchmarkFig9SelfTrained regenerates Figure 9: the Dispute2014-trained
// model's classification fractions.
func BenchmarkFig9SelfTrained(b *testing.B) {
	tests := disputeData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig9(tests, int64(i+9))
		for _, row := range rows {
			if row.Site.Transit == "Cogent" && row.ISP == "Comcast" && row.Period == mlab.MarApr {
				b.ReportMetric(row.FracSelf, "cogent-comcast-after")
			}
		}
	}
}

// BenchmarkFig6TSLP regenerates Figure 6: the TSLP latency / NDT throughput
// timeline with congestion episodes.
func BenchmarkFig6TSLP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tests, err := experiments.Exec{Scale: experiments.Quick, Seed: int64(i*10 + 3000)}.TSLPData(nil)
		if err != nil {
			b.Fatal(err)
		}
		pts := experiments.Fig6(tests)
		var congFar, cleanFar float64
		var nc, nn int
		for _, p := range pts {
			if p.FarRTTms == 0 {
				continue
			}
			if p.Congested {
				congFar += p.FarRTTms
				nc++
			} else {
				cleanFar += p.FarRTTms
				nn++
			}
		}
		if nc > 0 && nn > 0 {
			b.ReportMetric(congFar/float64(nc), "congested-far-rtt-ms")
			b.ReportMetric(cleanFar/float64(nn), "clean-far-rtt-ms")
		}
	}
}

// BenchmarkTSLP2017Accuracy regenerates the §5.4 table: classifier accuracy
// against TSLP ground truth.
func BenchmarkTSLP2017Accuracy(b *testing.B) {
	_, clf := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tests, err := experiments.Exec{Scale: experiments.Quick, Seed: int64(i*10 + 3000)}.TSLPData(nil)
		if err != nil {
			b.Fatal(err)
		}
		acc := experiments.EvalTSLP(tests, clf)
		b.ReportMetric(acc.AccSelf(), "self-accuracy")
		b.ReportMetric(acc.AccExt(), "ext-accuracy")
	}
}

// BenchmarkTreeDepthAblation regenerates the §3.2 depth choice table.
func BenchmarkTreeDepthAblation(b *testing.B) {
	results, _ := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.DepthAblation(results, 0.8, int64(i+5))
		for _, row := range rows {
			if row.Depth == 4 {
				b.ReportMetric(row.Accuracy, "depth4-accuracy")
			}
		}
	}
}

// BenchmarkFeatureAblation regenerates the §3.3 "why both metrics" table.
func BenchmarkFeatureAblation(b *testing.B) {
	results, _ := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.FeatureAblation(results, 0.8, int64(i+5))
		for _, row := range rows {
			switch row.Features {
			case "normdiff":
				b.ReportMetric(row.Accuracy, "normdiff-only")
			case "cov":
				b.ReportMetric(row.Accuracy, "cov-only")
			case "normdiff+cov":
				b.ReportMetric(row.Accuracy, "both")
			}
		}
	}
}

// BenchmarkBBRAblation regenerates the §6 congestion-control/AQM ablation.
func BenchmarkBBRAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Exec{Scale: experiments.Quick, Seed: int64(i*100 + 11)}.CCAblation()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rows {
			switch row.Variant {
			case "reno":
				b.ReportMetric(row.MaxRTTms, "reno-maxrtt-ms")
			case "bbr":
				b.ReportMetric(row.MaxRTTms, "bbr-maxrtt-ms")
			case "reno+red":
				b.ReportMetric(row.NormDiff, "red-normdiff")
			}
		}
	}
}

// BenchmarkREDAblation isolates the §6 AQM claim: a single self-induced run
// over a RED-managed access buffer.
func BenchmarkREDAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := testbed.Run(testbed.Config{
			Access: testbed.AccessParams{
				RateMbps: 20,
				Latency:  20 * time.Millisecond,
				Jitter:   2 * time.Millisecond,
				Buffer:   100 * time.Millisecond,
			},
			TransCross: true,
			RED:        true,
			Duration:   5 * time.Second,
			Seed:       int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Features.NormDiff, "normdiff")
		b.ReportMetric(res.Features.CoV, "cov")
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks: the per-flow pipeline and the substrates. The bodies
// live in internal/benchkit so `ccsig bench` can drive the identical code
// through testing.Benchmark when emitting perf-trajectory artifacts; the
// wrappers here keep the historical benchmark names stable for CI's
// -bench regex and benchstat history.

// BenchmarkEmulatedTransfer measures raw emulation speed: a 10-second
// 20 Mbps throughput test per iteration.
func BenchmarkEmulatedTransfer(b *testing.B) { benchkit.EmulatedTransfer(b) }

// BenchmarkFlowRTTExtraction measures trace analysis over a captured
// 10-second transfer.
func BenchmarkFlowRTTExtraction(b *testing.B) { benchkit.FlowRTTExtraction(b) }

// BenchmarkStreamIngest measures the streaming classification table end to
// end over a captured transfer, with per-flow state recycling on.
func BenchmarkStreamIngest(b *testing.B) { benchkit.StreamIngest(b) }

// BenchmarkFeatureExtraction measures NormDiff/CoV computation.
func BenchmarkFeatureExtraction(b *testing.B) { benchkit.FeatureExtraction(b) }

// BenchmarkTreePredict measures single-flow classification.
func BenchmarkTreePredict(b *testing.B) { benchkit.TreePredict(b) }

// BenchmarkTreeTrain measures decision-tree training on 1000 examples.
func BenchmarkTreeTrain(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	var ex []dtree.Example
	for i := 0; i < 1000; i++ {
		x, y := rng.Float64(), rng.Float64()
		label := 0
		if x > 0.5 {
			label = 1
		}
		ex = append(ex, dtree.Example{X: []float64{x, y}, Label: label})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dtree.Train(ex, dtree.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineEvents measures the raw discrete-event engine throughput.
func BenchmarkEngineEvents(b *testing.B) { benchkit.EngineEvents(b) }

// BenchmarkNetemEnqueue is the disabled-sink link hot-path baseline: the
// observability layer must cost ~nothing here (a nil check per event).
func BenchmarkNetemEnqueue(b *testing.B) { benchkit.NetemEnqueue(b) }

// BenchmarkNetemEnqueueTraced measures the same path with tracing on.
func BenchmarkNetemEnqueueTraced(b *testing.B) { benchkit.NetemEnqueueTraced(b) }

// BenchmarkSenderStep is the disabled-sink sender hot-path baseline.
func BenchmarkSenderStep(b *testing.B) { benchkit.SenderStep(b) }

// BenchmarkSenderStepTraced measures the sender with tracing and metrics on.
func BenchmarkSenderStepTraced(b *testing.B) { benchkit.SenderStepTraced(b) }

// BenchmarkNDTTest measures one emulated NDT measurement including TSLP
// probes (the mlab substrate's unit of work).
func BenchmarkNDTTest(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := mlab.RunNDT(mlab.PathParams{
			AccessMbps:    25,
			AccessLatency: 12 * time.Millisecond,
			AccessBuffer:  20 * time.Millisecond,
			InterBuffer:   15 * time.Millisecond,
			Duration:      5 * time.Second,
			Seed:          int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ThroughputBps/1e6, "mbps")
	}
}
