package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"tcpsig/internal/dtree"
	"tcpsig/internal/features"
	"tcpsig/internal/tcpsim"
	"tcpsig/internal/testbed"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// FeatureAblationRow compares models trained on both features vs one.
type FeatureAblationRow struct {
	Features string
	Accuracy float64
	TestN    int
}

// FeatureAblation answers §3.3 "why do we need both metrics?" by training on
// NormDiff only, CoV only, and both, over the same sweep results.
func FeatureAblation(results []*testbed.Result, threshold float64, seed int64) []FeatureAblationRow {
	ds := testbed.Dataset(results, threshold)
	variants := []struct {
		name string
		idx  []int
	}{
		{"normdiff", []int{0}},
		{"cov", []int{1}},
		{"normdiff+cov", []int{0, 1}},
	}
	var out []FeatureAblationRow
	for _, v := range variants {
		sub := make([]dtree.Example, len(ds))
		for i, e := range ds {
			x := make([]float64, len(v.idx))
			for j, k := range v.idx {
				x[j] = e.X[k]
			}
			sub[i] = dtree.Example{X: x, Label: e.Label}
		}
		rng := newRand(seed)
		train, test := dtree.TrainTestSplit(rng, sub, 0.7)
		if len(train) == 0 {
			continue
		}
		tree, err := dtree.Train(train, dtree.Options{MaxDepth: 4, MinLeaf: 2})
		if err != nil {
			continue
		}
		eval := test
		if len(eval) == 0 {
			eval = train
		}
		out = append(out, FeatureAblationRow{
			Features: v.name,
			Accuracy: tree.Evaluate(eval).Accuracy(),
			TestN:    len(eval),
		})
	}
	return out
}

// DepthAblationRow evaluates the tree-depth choice of §3.2.
type DepthAblationRow struct {
	Depth    int
	Accuracy float64
}

// DepthAblation trains at depths 1-6 over the same dataset (the paper
// reports depths 3-5 all work and picks 4).
func DepthAblation(results []*testbed.Result, threshold float64, seed int64) []DepthAblationRow {
	ds := testbed.Dataset(results, threshold)
	var out []DepthAblationRow
	for depth := 1; depth <= 6; depth++ {
		rng := newRand(seed)
		train, test := dtree.TrainTestSplit(rng, ds, 0.7)
		if len(train) == 0 {
			continue
		}
		tree, err := dtree.Train(train, dtree.Options{MaxDepth: depth, MinLeaf: 2, FeatureNames: features.Names()})
		if err != nil {
			continue
		}
		eval := test
		if len(eval) == 0 {
			eval = train
		}
		out = append(out, DepthAblationRow{Depth: depth, Accuracy: tree.Evaluate(eval).Accuracy()})
	}
	return out
}

// VariantRow reports the slow-start signature under a protocol/queue
// variant, for the §6 limitations discussion.
type VariantRow struct {
	Variant   string
	Scenario  int
	NormDiff  float64
	CoV       float64
	MaxRTTms  float64
	MinRTTms  float64
	Runs      int
	ValidRuns int
}

// CCAblation measures the self-induced signature under Reno, CUBIC and the
// BBR-like controller (the paper notes latency-based congestion control can
// confound the technique) plus a RED-queue variant (§6 claims AQM keeps the
// signature as long as RTT still rises). Seeds derive from the flat
// (variant, repetition) index, matching the historical shared counter.
// Checkpoint stage "variants": the CC constructors are function values the
// checkpoint identity cannot describe, so the variant list itself — names
// in order — stands in for them; changing the list changes the identity
// and refuses a stale resume.
func (e Exec) CCAblation() ([]VariantRow, error) {
	runs := 3
	if e.Scale >= Full {
		runs = 8
	}
	base := testbed.AccessParams{
		RateMbps: 20,
		Latency:  20 * time.Millisecond,
		Jitter:   2 * time.Millisecond,
		Buffer:   100 * time.Millisecond,
	}
	variants := []struct {
		name string
		cc   func() tcpsim.CongestionControl
		red  bool
		ecn  bool
	}{
		{name: "reno"},
		{name: "cubic", cc: func() tcpsim.CongestionControl { return &tcpsim.Cubic{} }},
		{name: "cubic+hystart", cc: func() tcpsim.CongestionControl { return &tcpsim.Cubic{HyStart: true} }},
		{name: "bbr", cc: func() tcpsim.CongestionControl { return &tcpsim.BBRLite{} }},
		{name: "vegas", cc: func() tcpsim.CongestionControl { return &tcpsim.Vegas{} }},
		{name: "reno+red", red: true},
		{name: "reno+ecn", ecn: true},
	}
	names := make([]string, 0, len(variants))
	specs := make([]testbed.Config, 0, len(variants)*runs)
	for _, v := range variants {
		names = append(names, v.name)
		for i := 0; i < runs; i++ {
			specs = append(specs, testbed.Config{
				Access: base, TransCross: true, Duration: 5 * time.Second,
				Seed: e.Seed + 1 + int64(len(specs)), CC: v.cc, RED: v.red, ECN: v.ecn,
			})
		}
	}
	identity := fmt.Sprintf("experiments.CCAblation v1 seed=%d runs=%d variants=%v", e.Seed, runs, names)
	outcomes, err := e.runAll(specs, "variants", identity)
	if err != nil {
		return nil, err
	}

	var out []VariantRow
	idx := 0
	for _, v := range variants {
		row := VariantRow{Variant: v.name, Scenario: testbed.SelfInduced}
		var nd, cov, maxMs, minMs float64
		for i := 0; i < runs; i++ {
			res := outcomes[idx]
			idx++
			row.Runs++
			if res == nil {
				continue
			}
			row.ValidRuns++
			nd += res.Features.NormDiff
			cov += res.Features.CoV
			maxMs += float64(res.Features.MaxRTT) / float64(time.Millisecond)
			minMs += float64(res.Features.MinRTT) / float64(time.Millisecond)
		}
		if row.ValidRuns > 0 {
			n := float64(row.ValidRuns)
			row.NormDiff = nd / n
			row.CoV = cov / n
			row.MaxRTTms = maxMs / n
			row.MinRTTms = minMs / n
		}
		out = append(out, row)
	}
	return out, nil
}
