package experiments

import (
	"testing"

	"tcpsig/internal/mlab"
	"tcpsig/internal/stats"
	"tcpsig/internal/testbed"
)

// The experiment tests validate the SHAPE of each reproduced figure at Quick
// scale: who wins, which direction the gaps go — the qualitative claims of
// the paper — rather than absolute values.

func sweepOnce(t *testing.T) []*testbed.Result {
	t.Helper()
	results, err := Exec{Scale: Quick, Seed: 1000}.SweepResults(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) < 12 {
		t.Fatalf("quick sweep yielded only %d results", len(results))
	}
	return results
}

func medianOfCDF(c []stats.CDFPoint) float64 {
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

func TestFig1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("emulation")
	}
	r, err := Exec{Scale: Quick, Seed: 1}.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	if r.Runs < 6 {
		t.Fatalf("only %d runs", r.Runs)
	}
	// Fig 1a: the self-induced max-min RTT concentrates at the 100 ms
	// buffer size. The external distribution has a legitimate tail that
	// reaches the same magnitude (the paper's Fig 1a external curve also
	// extends to ~100 ms), so the ordering assertion lives on the
	// normalized metric: Fig 1b's CoV separates the classes because the
	// external baseline RTT is elevated.
	selfDiff := medianOfCDF(r.MaxMinDiffMs[testbed.SelfInduced])
	if selfDiff < 60 {
		t.Fatalf("self max-min %.1f ms; 100 ms buffer should dominate", selfDiff)
	}
	selfCoV := medianOfCDF(r.CoV[testbed.SelfInduced])
	extCoV := medianOfCDF(r.CoV[testbed.External])
	if selfCoV <= extCoV {
		t.Fatalf("CoV: self %.3f <= external %.3f", selfCoV, extCoV)
	}
	if selfCoV < 0.35 {
		t.Fatalf("self CoV %.3f; buffer-filling variation missing", selfCoV)
	}
}

func TestFig3And4AndAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("emulation")
	}
	results := sweepOnce(t)

	// Fig 3: thresholds in the paper's robust band give high scores
	// (0.9 needs the full grid's sample count, so quick checks 0.6-0.8).
	pts := Fig3(results, []float64{0.6, 0.7, 0.8}, 5)
	for _, p := range pts {
		if p.TestN == 0 {
			t.Fatalf("threshold %.2f produced no test set", p.Threshold)
		}
		// Small quick-grid test sets are noisy; require a floor per
		// threshold and a high average across the band.
		if p.PrecisionSelf < 0.6 || p.RecallSelf < 0.6 {
			t.Fatalf("threshold %.2f: self P/R %.2f/%.2f too low", p.Threshold, p.PrecisionSelf, p.RecallSelf)
		}
	}
	var avgP float64
	for _, p := range pts {
		avgP += (p.PrecisionSelf + p.RecallSelf) / 2
	}
	if avgP/float64(len(pts)) < 0.8 {
		t.Fatalf("mean self P/R across thresholds %.2f, want >= 0.8", avgP/float64(len(pts)))
	}

	// Fig 4: classes separate in the feature plane (mean comparison).
	var ndSelf, ndExt, covSelf, covExt float64
	var nSelf, nExt int
	for _, p := range Fig4(results) {
		if p.Scenario == testbed.SelfInduced {
			ndSelf += p.NormDiff
			covSelf += p.CoV
			nSelf++
		} else {
			ndExt += p.NormDiff
			covExt += p.CoV
			nExt++
		}
	}
	if nSelf == 0 || nExt == 0 {
		t.Fatal("missing class in Fig4")
	}
	if ndSelf/float64(nSelf) <= ndExt/float64(nExt) {
		t.Fatal("Fig4 NormDiff means not separated")
	}
	if covSelf/float64(nSelf) <= covExt/float64(nExt) {
		t.Fatal("Fig4 CoV means not separated")
	}

	// Ablations: the combined model should not lose to either single
	// feature by much, and depth >= 3 should be accurate (§3.2).
	fa := FeatureAblation(results, 0.7, 5)
	if len(fa) != 3 {
		t.Fatalf("feature ablation rows = %d", len(fa))
	}
	var both, best float64
	for _, row := range fa {
		if row.Features == "normdiff+cov" {
			both = row.Accuracy
		}
		if row.Accuracy > best {
			best = row.Accuracy
		}
	}
	if both < best-0.1 {
		t.Fatalf("combined features much worse than single: %.2f vs %.2f", both, best)
	}
	da := DepthAblation(results, 0.7, 5)
	for _, row := range da {
		if row.Depth >= 3 && row.Accuracy < 0.8 {
			t.Fatalf("depth %d accuracy %.2f", row.Depth, row.Accuracy)
		}
	}
}

func TestDisputePipelineShape(t *testing.T) {
	if testing.Short() {
		t.Skip("emulation")
	}
	results := sweepOnce(t)
	clf, err := TrainOnResults(results, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	tests, err := Exec{Scale: Quick, Seed: 2000}.DisputeData(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tests) < 20 {
		t.Fatalf("dispute data too small: %d", len(tests))
	}

	rows := Fig7(tests, clf)
	if len(rows) == 0 {
		t.Fatal("Fig7 empty")
	}
	get := func(transit, isp string, p mlab.Period) (Fig7Row, bool) {
		for _, r := range rows {
			if r.Site.Transit == transit && r.ISP == isp && r.Period == p {
				return r, true
			}
		}
		return Fig7Row{}, false
	}
	// The headline claim: Cogent/Comcast shows far fewer self-induced
	// classifications during the dispute (Jan-Feb peak) than after
	// (Mar-Apr off-peak).
	during, ok1 := get("Cogent", "Comcast", mlab.JanFeb)
	after, ok2 := get("Cogent", "Comcast", mlab.MarApr)
	if !ok1 || !ok2 {
		t.Fatalf("missing Cogent/Comcast rows: %+v", rows)
	}
	if during.FracSelf >= after.FracSelf {
		t.Fatalf("no dispute signal: during=%.2f after=%.2f", during.FracSelf, after.FracSelf)
	}
	if after.FracSelf-during.FracSelf < 0.3 {
		t.Fatalf("dispute gap too small: during=%.2f after=%.2f", during.FracSelf, after.FracSelf)
	}

	// Fig 5 sanity: the affected diurnal series dips at peak.
	f5 := Fig5(tests)
	if len(f5) == 0 {
		t.Fatal("Fig5 empty")
	}

	// Fig 8: self-classified flows outperform external ones after the
	// dispute (Mar-Apr), when congestion is gone.
	f8 := Fig8(tests, clf)
	for _, r := range f8 {
		if r.Transit == "Cogent" && r.ISP == "Comcast" && r.Period == mlab.MarApr && r.NSelf > 0 && r.NExt > 2 {
			if r.MedianSelf <= r.MedianExt {
				t.Fatalf("Fig8 Mar-Apr: self median %.1f <= ext %.1f", r.MedianSelf, r.MedianExt)
			}
		}
	}

	// Fig 9: a Dispute-trained model must reproduce the same direction.
	f9 := Fig9(tests, 9)
	var f9During, f9After Fig7Row
	var got1, got2 bool
	for _, r := range f9 {
		if r.Site.Transit == "Cogent" && r.ISP == "Comcast" {
			if r.Period == mlab.JanFeb {
				f9During, got1 = r, true
			} else {
				f9After, got2 = r, true
			}
		}
	}
	if got1 && got2 && f9During.FracSelf > f9After.FracSelf {
		t.Fatalf("Fig9 direction wrong: during=%.2f after=%.2f", f9During.FracSelf, f9After.FracSelf)
	}
}

func TestTSLPPipelineShape(t *testing.T) {
	if testing.Short() {
		t.Skip("emulation")
	}
	results := sweepOnce(t)
	clf, err := TrainOnResults(results, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	tests, err := Exec{Scale: Quick, Seed: 3000}.TSLPData(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tests) < 30 {
		t.Fatalf("tslp data too small: %d", len(tests))
	}
	pts := Fig6(tests)
	// Congested samples must show elevated far RTT vs uncongested ones.
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
	if nc == 0 || nn == 0 {
		t.Fatalf("timeline lacks states: cong=%d clean=%d", nc, nn)
	}
	if congFar/float64(nc) < cleanFar/float64(nn)+5 {
		t.Fatalf("TSLP far RTT not elevated: %.1f vs %.1f ms", congFar/float64(nc), cleanFar/float64(nn))
	}

	acc := EvalTSLP(tests, clf)
	if acc.SelfTotal == 0 || acc.ExtTotal == 0 {
		t.Fatalf("labeled classes missing: %+v", acc)
	}
	// §5.4 shape: very high self accuracy, decent external accuracy.
	if acc.AccSelf() < 0.9 {
		t.Fatalf("self accuracy %.2f, want >= 0.9 (paper: 0.99)", acc.AccSelf())
	}
	if acc.AccExt() < 0.5 {
		t.Fatalf("external accuracy %.2f, want >= 0.5 (paper: 0.75-0.85)", acc.AccExt())
	}
}

func TestMultiplexingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("emulation")
	}
	results := sweepOnce(t)
	clf, err := TrainOnResults(results, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Exec{Scale: Quick, Seed: 4000}.Multiplexing(clf)
	if err != nil {
		t.Fatal(err)
	}
	var at100, at10 float64
	for _, r := range rows {
		if r.CongFlows == 100 {
			at100 = r.FracExpected
		}
		if r.CongFlows == 10 {
			at10 = r.FracExpected
		}
		if r.AccessCross > 0 && r.FracExpected < 0.3 {
			t.Fatalf("access-cross %d: self fraction %.2f collapsed", r.AccessCross, r.FracExpected)
		}
	}
	// §3.3: detection degrades as the congesting flow count drops
	// (93% at 100 flows down to 50% at 10).
	if at100 < at10 {
		t.Fatalf("multiplexing trend inverted: 100 flows %.2f < 10 flows %.2f", at100, at10)
	}
	if at100 < 0.6 {
		t.Fatalf("external detection at 100 flows only %.2f", at100)
	}
}

func TestCCAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("emulation")
	}
	rows, err := Exec{Scale: Quick, Seed: 5000}.CCAblation()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]VariantRow{}
	for _, r := range rows {
		if r.ValidRuns == 0 {
			t.Fatalf("variant %s produced no valid runs", r.Variant)
		}
		byName[r.Variant] = r
	}
	// §6: BBR keeps the buffer largely empty — its max RTT sits well
	// below Reno's, shrinking the signature.
	if byName["bbr"].MaxRTTms >= byName["reno"].MaxRTTms {
		t.Fatalf("BBR max RTT %.1f >= Reno %.1f", byName["bbr"].MaxRTTms, byName["reno"].MaxRTTms)
	}
	// Vegas, the other delay-based controller, confounds the same way.
	if byName["vegas"].MaxRTTms >= byName["reno"].MaxRTTms {
		t.Fatalf("Vegas max RTT %.1f >= Reno %.1f", byName["vegas"].MaxRTTms, byName["reno"].MaxRTTms)
	}
	// §6: RED still shows a buffer-filling signature (RTT rises).
	if byName["reno+red"].NormDiff < 0.25 {
		t.Fatalf("RED NormDiff %.2f; signature lost under AQM", byName["reno+red"].NormDiff)
	}
}
