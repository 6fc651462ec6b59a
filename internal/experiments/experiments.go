// Package experiments reproduces every figure and table of the paper's
// evaluation. Exec methods run the emulated workloads; each Fig* function
// either is one of them or takes the dataset one of them generated, and
// returns the series the paper plots, so ccsig figures and the benchmark
// harness print the same rows.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"tcpsig/internal/core"
	"tcpsig/internal/dtree"
	"tcpsig/internal/features"
	"tcpsig/internal/mlab"
	"tcpsig/internal/stats"
	"tcpsig/internal/testbed"
)

// Scale selects how much work an experiment runs.
type Scale int

// Scales. Quick keeps every experiment under a minute; Paper matches the
// paper's run counts.
const (
	Quick Scale = iota
	Full
	Paper
)

func (s Scale) String() string {
	switch s {
	case Quick:
		return "quick"
	case Full:
		return "full"
	default:
		return "paper"
	}
}

// ---------------------------------------------------------------------------
// Figure 1: RTT signature CDFs.

// Fig1Result holds the two CDFs for each congestion class.
type Fig1Result struct {
	// MaxMinDiffMs holds per-class CDFs of (max-min) slow-start RTT in
	// milliseconds, indexed by class.
	MaxMinDiffMs [2][]stats.CDFPoint

	// CoV holds per-class CDFs of the RTT coefficient of variation.
	CoV [2][]stats.CDFPoint

	Runs int
}

// fig1Params returns the run count and per-test duration for a scale.
func fig1Params(scale Scale) (runs int, dur time.Duration) {
	runs, dur = 4, 5*time.Second
	switch scale {
	case Full:
		runs = 15
		dur = 10 * time.Second
	case Paper:
		runs = 50
		dur = 10 * time.Second
	}
	return runs, dur
}

// fig1Plan expands Fig1's run list — both scenarios, runs repetitions
// each — deriving every seed from the flat run index so run i carries the
// same base+1+i value the historical shared counter assigned it.
func fig1Plan(runs int, dur time.Duration, seed int64) []testbed.Config {
	specs := make([]testbed.Config, 0, 2*runs)
	for _, scenario := range []int{testbed.SelfInduced, testbed.External} {
		for i := 0; i < runs; i++ {
			cfg := testbed.Config{
				Access: testbed.AccessParams{
					RateMbps: 20,
					Latency:  20 * time.Millisecond,
					Jitter:   2 * time.Millisecond,
					Buffer:   100 * time.Millisecond,
				},
				TransCross: true,
				Duration:   dur,
				Seed:       seed + 1 + int64(len(specs)),
			}
			if scenario == testbed.External {
				cfg.CongFlows = 100
				cfg.WarmUp = 4 * time.Second
			}
			specs = append(specs, cfg)
		}
	}
	return specs
}

// ---------------------------------------------------------------------------
// Figures 3 & 4: classifier performance vs threshold, and the feature plane.

// ThresholdPoint is one row of Figure 3: per-class precision and recall at a
// labeling threshold.
type ThresholdPoint struct {
	Threshold     float64
	PrecisionSelf float64
	RecallSelf    float64
	PrecisionExt  float64
	RecallExt     float64
	TrainN        int
	TestN         int
}

// Fig3 evaluates precision/recall across labeling thresholds with a 70/30
// train/test split, as the paper's Figure 3.
func Fig3(results []*testbed.Result, thresholds []float64, seed int64) []ThresholdPoint {
	if thresholds == nil {
		thresholds = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95}
	}
	var out []ThresholdPoint
	for _, th := range thresholds {
		ds := testbed.Dataset(results, th)
		classes := map[int]bool{}
		for _, e := range ds {
			classes[e.Label] = true
		}
		if len(ds) < 10 || len(classes) < 2 {
			// Extreme thresholds can label everything one way; report
			// an empty point, as the paper's Fig 3 tails degrade too.
			out = append(out, ThresholdPoint{Threshold: th})
			continue
		}
		rng := newRand(seed)
		train, test := dtree.TrainTestSplit(rng, ds, 0.7)
		tree, err := dtree.Train(train, dtree.Options{MaxDepth: 4, MinLeaf: 2, FeatureNames: features.Names()})
		if err != nil {
			out = append(out, ThresholdPoint{Threshold: th})
			continue
		}
		eval := test
		if len(test) == 0 {
			eval = train
		}
		c := tree.Evaluate(eval)
		out = append(out, ThresholdPoint{
			Threshold:     th,
			PrecisionSelf: c.Precision(testbed.SelfInduced),
			RecallSelf:    c.Recall(testbed.SelfInduced),
			PrecisionExt:  c.Precision(testbed.External),
			RecallExt:     c.Recall(testbed.External),
			TrainN:        len(train),
			TestN:         len(eval),
		})
	}
	return out
}

// Fig4Point is one scatter point of Figure 4.
type Fig4Point struct {
	NormDiff float64
	CoV      float64
	Scenario int
}

// Fig4 extracts the raw feature plane from sweep results.
func Fig4(results []*testbed.Result) []Fig4Point {
	out := make([]Fig4Point, 0, len(results))
	for _, r := range results {
		out = append(out, Fig4Point{NormDiff: r.Features.NormDiff, CoV: r.Features.CoV, Scenario: r.Scenario})
	}
	return out
}

// TrainOnResults builds the testbed model used by the real-world
// evaluations.
func TrainOnResults(results []*testbed.Result, threshold float64) (*core.Classifier, error) {
	ds := testbed.Dataset(results, threshold)
	return core.Train(ds, core.TrainOptions{MaxDepth: 4, MinLeaf: 2, Threshold: threshold})
}

// CVAccuracy runs seeded k-fold cross-validation over the labelled dataset
// derived from sweep results, with the same tree hyperparameters as the
// paper's classifier (depth 4, min leaf 2). The conformance suite pins its
// per-regime accuracy floors on the result.
func CVAccuracy(results []*testbed.Result, threshold float64, k int, seed int64) (dtree.CVResult, error) {
	ds := testbed.Dataset(results, threshold)
	return dtree.CrossValidate(newRand(seed), ds, k, dtree.Options{
		MaxDepth:     4,
		MinLeaf:      2,
		FeatureNames: features.Names(),
	})
}

// ---------------------------------------------------------------------------
// Section 3.3: multiplexing.

// MultiplexPoint is one row of the §3.3 experiment.
type MultiplexPoint struct {
	// CongFlows is the interconnect cross-traffic concurrency (0 for the
	// access-cross-flow variant).
	CongFlows int

	// AccessCross is the number of competing flows in the access link.
	AccessCross int

	// FracExpected is the fraction of runs classified as the intended
	// scenario (external for CongFlows rows, self for AccessCross rows).
	FracExpected float64

	Runs int
}

// ---------------------------------------------------------------------------
// Figures 5, 7, 8, 9: Dispute2014.

// Fig5Row is one diurnal series: mean throughput by hour.
type Fig5Row struct {
	Site   mlab.Site
	ISP    string
	Period mlab.Period
	ByHour map[int]float64
}

// Fig5 aggregates the diurnal throughput series of Figure 5.
func Fig5(tests []mlab.DisputeTest) []Fig5Row {
	var out []Fig5Row
	seen := map[string]bool{}
	for _, t := range tests {
		key := fmt.Sprintf("%s|%s|%s|%d", t.Site.Transit, t.Site.City, t.ISP, t.Period)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, Fig5Row{
			Site:   t.Site,
			ISP:    t.ISP,
			Period: t.Period,
			ByHour: mlab.DiurnalThroughput(tests, t.Site, t.ISP, t.Period),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		ka := a.Site.Transit + a.Site.City + a.ISP + a.Period.String()
		kb := b.Site.Transit + b.Site.City + b.ISP + b.Period.String()
		return ka < kb
	})
	return out
}

// Fig7Row is one bar of Figure 7: the fraction of flows classified as
// self-induced for a (site, ISP, period).
type Fig7Row struct {
	Site     mlab.Site
	ISP      string
	Period   mlab.Period
	FracSelf float64
	N        int
}

// Fig7 classifies the labeled window of the Dispute2014 data (peak hours in
// Jan-Feb, off-peak in Mar-Apr) with the given model, matching the paper's
// protocol.
func Fig7(tests []mlab.DisputeTest, clf *core.Classifier) []Fig7Row {
	type cell struct {
		self, n int
	}
	agg := map[string]*cell{}
	meta := map[string]Fig7Row{}
	for i := range tests {
		t := &tests[i]
		if !t.Result.FeaturesValid || !t.Result.PassesNDTFilter() {
			continue
		}
		// The paper evaluates peak-hour tests in Jan-Feb and off-peak
		// in Mar-Apr for every site/ISP.
		if t.Period == mlab.JanFeb && !mlab.PeakHour(t.Hour) {
			continue
		}
		if t.Period == mlab.MarApr && !mlab.OffPeakHour(t.Hour) {
			continue
		}
		key := fmt.Sprintf("%s|%s|%s|%d", t.Site.Transit, t.Site.City, t.ISP, t.Period)
		c, ok := agg[key]
		if !ok {
			c = &cell{}
			agg[key] = c
			meta[key] = Fig7Row{Site: t.Site, ISP: t.ISP, Period: t.Period}
		}
		c.n++
		if clf.ClassifyFeatures(t.Result.Features).Class == core.SelfInduced {
			c.self++
		}
	}
	var out []Fig7Row
	for _, key := range sortedKeys(agg) {
		c := agg[key]
		row := meta[key]
		row.FracSelf = frac(c.self, c.n)
		row.N = c.n
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		ka := a.Site.Transit + a.Site.City + a.ISP + a.Period.String()
		kb := b.Site.Transit + b.Site.City + b.ISP + b.Period.String()
		return ka < kb
	})
	return out
}

// Fig8Row is one group of Figure 8: median throughput of flows classified
// self vs external per (transit, ISP, period).
type Fig8Row struct {
	Transit    string
	ISP        string
	Period     mlab.Period
	MedianSelf float64 // Mbps
	MedianExt  float64 // Mbps
	NSelf      int
	NExt       int
}

// Fig8 computes the classified-throughput comparison of Figure 8.
func Fig8(tests []mlab.DisputeTest, clf *core.Classifier) []Fig8Row {
	type bucket struct{ self, ext []float64 }
	agg := map[string]*bucket{}
	for i := range tests {
		t := &tests[i]
		if !t.Result.FeaturesValid || !t.Result.PassesNDTFilter() {
			continue
		}
		if t.Period == mlab.JanFeb && !mlab.PeakHour(t.Hour) {
			continue
		}
		if t.Period == mlab.MarApr && !mlab.OffPeakHour(t.Hour) {
			continue
		}
		key := fmt.Sprintf("%s|%s|%d", t.Site.Transit, t.ISP, t.Period)
		b, ok := agg[key]
		if !ok {
			b = &bucket{}
			agg[key] = b
		}
		mbps := t.Result.ThroughputBps / 1e6
		if clf.ClassifyFeatures(t.Result.Features).Class == core.SelfInduced {
			b.self = append(b.self, mbps)
		} else {
			b.ext = append(b.ext, mbps)
		}
	}
	var out []Fig8Row
	for _, key := range sortedKeys(agg) {
		b := agg[key]
		parts := strings.SplitN(key, "|", 3)
		row := Fig8Row{Transit: parts[0], ISP: parts[1], NSelf: len(b.self), NExt: len(b.ext)}
		fmt.Sscanf(parts[2], "%d", new(int)) // period parsed below
		var p int
		fmt.Sscanf(parts[2], "%d", &p)
		row.Period = mlab.Period(p)
		row.MedianSelf = stats.Median(b.self)
		row.MedianExt = stats.Median(b.ext)
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		ka := a.Transit + a.ISP + a.Period.String()
		kb := b.Transit + b.ISP + b.Period.String()
		return ka < kb
	})
	return out
}

// Fig9 repeats Figure 7 with a model trained on the Dispute2014 data itself:
// for each (site, ISP) under test, a tree is trained on 20% of the labeled
// tests from all OTHER combinations (§5.3).
func Fig9(tests []mlab.DisputeTest, seed int64) []Fig7Row {
	// Pre-extract labeled examples per combination key.
	type labeled struct {
		key string
		ex  dtree.Example
	}
	var all []labeled
	for i := range tests {
		t := &tests[i]
		if !t.Result.FeaturesValid || !t.Result.PassesNDTFilter() {
			continue
		}
		label, ok := mlab.PaperLabel(t)
		if !ok {
			continue
		}
		key := fmt.Sprintf("%s|%s|%s", t.Site.Transit, t.Site.City, t.ISP)
		all = append(all, labeled{key: key, ex: dtree.Example{X: t.Result.Features.Values(), Label: label}})
	}

	combos := map[string]bool{}
	for _, l := range all {
		combos[l.key] = true
	}

	var out []Fig7Row
	for _, combo := range sortedKeys(combos) {
		// Train on 20% of everything except this combo.
		var pool []dtree.Example
		for _, l := range all {
			if l.key != combo {
				pool = append(pool, l.ex)
			}
		}
		rng := newRand(seed)
		train, _ := dtree.TrainTestSplit(rng, pool, 0.2)
		if len(train) < 10 {
			continue
		}
		tree, err := dtree.Train(train, dtree.Options{MaxDepth: 4, MinLeaf: 2, FeatureNames: features.Names()})
		if err != nil {
			continue
		}
		clf := &core.Classifier{Tree: tree}
		// Classify this combo's evaluation window.
		var sub []mlab.DisputeTest
		for i := range tests {
			t := tests[i]
			key := fmt.Sprintf("%s|%s|%s", t.Site.Transit, t.Site.City, t.ISP)
			if key == combo {
				sub = append(sub, t)
			}
		}
		out = append(out, Fig7(sub, clf)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		ka := a.Site.Transit + a.Site.City + a.ISP + a.Period.String()
		kb := b.Site.Transit + b.Site.City + b.ISP + b.Period.String()
		return ka < kb
	})
	return out
}

// ---------------------------------------------------------------------------
// Figure 6 & §5.4: TSLP2017.

// Fig6Point is one timeline sample of Figure 6.
type Fig6Point struct {
	At         time.Duration // campaign time
	FarRTTms   float64
	NearRTTms  float64
	Throughput float64 // Mbps
	Congested  bool
}

// Fig6 extracts the latency/throughput timeline.
func Fig6(tests []mlab.TSLPTest) []Fig6Point {
	out := make([]Fig6Point, 0, len(tests))
	for i := range tests {
		t := &tests[i]
		out = append(out, Fig6Point{
			At:         t.At(),
			FarRTTms:   float64(t.Result.FarRTT) / float64(time.Millisecond),
			NearRTTms:  float64(t.Result.NearRTT) / float64(time.Millisecond),
			Throughput: t.Result.ThroughputBps / 1e6,
			Congested:  t.Congested,
		})
	}
	return out
}

// TSLPAccuracy is the §5.4 result: classifier accuracy against the TSLP
// ground-truth labels.
type TSLPAccuracy struct {
	SelfTotal   int
	SelfCorrect int
	ExtTotal    int
	ExtCorrect  int
	Unlabeled   int
}

// AccSelf returns self-induced detection accuracy.
func (a TSLPAccuracy) AccSelf() float64 { return frac(a.SelfCorrect, a.SelfTotal) }

// AccExt returns external detection accuracy.
func (a TSLPAccuracy) AccExt() float64 { return frac(a.ExtCorrect, a.ExtTotal) }

// EvalTSLP classifies the labeled subset of the TSLP campaign.
func EvalTSLP(tests []mlab.TSLPTest, clf *core.Classifier) TSLPAccuracy {
	var out TSLPAccuracy
	for i := range tests {
		t := &tests[i]
		label, ok := mlab.TSLPLabel(t)
		if !ok {
			out.Unlabeled++
			continue
		}
		pred := clf.ClassifyFeatures(t.Result.Features).Class
		if label == core.SelfInduced {
			out.SelfTotal++
			if pred == core.SelfInduced {
				out.SelfCorrect++
			}
		} else {
			out.ExtTotal++
			if pred == core.External {
				out.ExtCorrect++
			}
		}
	}
	return out
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// sortedKeys returns m's keys in sorted order, so aggregation loops iterate
// deterministically (ranging the map directly would leak the runtime's
// randomized iteration order into the output).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
