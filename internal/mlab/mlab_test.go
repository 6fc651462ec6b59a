package mlab

import (
	"testing"
	"time"
)

func TestRunNDTCleanPath(t *testing.T) {
	res, err := RunNDT(PathParams{
		AccessMbps:    25,
		AccessLatency: 12 * time.Millisecond,
		AccessBuffer:  20 * time.Millisecond,
		InterBuffer:   15 * time.Millisecond,
		Duration:      5 * time.Second,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FeaturesValid {
		t.Fatalf("features invalid: %s", res.FeaturesErrMsg)
	}
	// A clean path lets the flow approach its plan rate.
	if res.ThroughputBps < 0.6*25e6 {
		t.Fatalf("throughput %.1f Mbps too low on clean path", res.ThroughputBps/1e6)
	}
	// Baseline RTT ~16-18 ms (12 ms access + ~4 ms transit + queues).
	if res.Features.MinRTT > 20*time.Millisecond {
		t.Fatalf("min RTT %v, want < 20ms on idle interconnect", res.Features.MinRTT)
	}
	// TSLP probes: near and far agree when the interconnect is idle.
	if res.FarRTT-res.NearRTT > 5*time.Millisecond {
		t.Fatalf("far-near gap %v on idle interconnect", res.FarRTT-res.NearRTT)
	}
	if !res.PassesNDTFilter() {
		t.Fatalf("clean 5s test failed NDT filter: congfrac=%.2f", res.CongestionLimitedFrac())
	}
}

func TestRunNDTCongestedPath(t *testing.T) {
	// Some congested runs legitimately lose their entire initial window
	// (the paper discards flows with < 10 slow-start samples), so probe
	// several seeds and require every run to show congestion symptoms
	// and at least one to pass the validity filter.
	valid := 0
	for seed := int64(2); seed <= 5; seed++ {
		res, err := RunNDT(PathParams{
			AccessMbps:    25,
			AccessLatency: 12 * time.Millisecond,
			AccessBuffer:  20 * time.Millisecond,
			InterBuffer:   15 * time.Millisecond,
			CongFlows:     24,
			Duration:      5 * time.Second,
			Seed:          seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Congested interconnect: throughput collapses well below plan.
		if res.ThroughputBps > 15e6 {
			t.Fatalf("seed %d: throughput %.1f Mbps too high under congestion", seed, res.ThroughputBps/1e6)
		}
		// The TSLP far probe sees the queue; the near probe does not.
		if res.FarRTT-res.NearRTT < 8*time.Millisecond {
			t.Fatalf("seed %d: TSLP far-near gap %v, want the interconnect queue visible", seed, res.FarRTT-res.NearRTT)
		}
		if res.FeaturesValid {
			valid++
			// Elevated baseline from the standing interconnect queue.
			if res.Features.MinRTT < 25*time.Millisecond {
				t.Fatalf("seed %d: min RTT %v, want elevated baseline", seed, res.Features.MinRTT)
			}
		}
	}
	if valid == 0 {
		t.Fatal("no congested run passed the sample-validity filter")
	}
}

func TestNDTFeatureSeparation(t *testing.T) {
	clean, err := RunNDT(PathParams{AccessMbps: 25, AccessLatency: 12 * time.Millisecond, AccessBuffer: 20 * time.Millisecond, InterBuffer: 15 * time.Millisecond, Duration: 5 * time.Second, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cong, err := RunNDT(PathParams{AccessMbps: 25, AccessLatency: 12 * time.Millisecond, AccessBuffer: 20 * time.Millisecond, InterBuffer: 15 * time.Millisecond, CongFlows: 24, Duration: 5 * time.Second, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !clean.FeaturesValid || !cong.FeaturesValid {
		t.Fatal("features invalid")
	}
	if clean.Features.NormDiff <= cong.Features.NormDiff {
		t.Fatalf("NormDiff: clean %.3f <= congested %.3f", clean.Features.NormDiff, cong.Features.NormDiff)
	}
	if clean.Features.CoV <= cong.Features.CoV {
		t.Fatalf("CoV: clean %.3f <= congested %.3f", clean.Features.CoV, cong.Features.CoV)
	}
}

func TestDisputeAffectedMatrix(t *testing.T) {
	cogentLAX := Site{Transit: "Cogent", City: "LAX"}
	level3 := Site{Transit: "Level3", City: "ATL"}
	if !Affected(cogentLAX, "Comcast", JanFeb) {
		t.Fatal("Cogent/Comcast Jan-Feb should be affected")
	}
	if Affected(cogentLAX, "Cox", JanFeb) {
		t.Fatal("Cox peered directly; never affected")
	}
	if Affected(cogentLAX, "Comcast", MarApr) {
		t.Fatal("resolved by Mar-Apr")
	}
	if Affected(level3, "Comcast", JanFeb) {
		t.Fatal("Level3 was never affected")
	}
}

func TestPeakHours(t *testing.T) {
	if !PeakHour(16) || !PeakHour(23) || PeakHour(15) || PeakHour(3) {
		t.Fatal("peak window is 16-23")
	}
	if !OffPeakHour(1) || !OffPeakHour(8) || OffPeakHour(0) || OffPeakHour(9) {
		t.Fatal("off-peak window is 1-8")
	}
}

func TestPaperLabel(t *testing.T) {
	mk := func(site Site, isp string, p Period, h int) *DisputeTest {
		return &DisputeTest{Site: site, ISP: isp, Period: p, Hour: h}
	}
	cogent := Site{Transit: "Cogent", City: "LAX"}
	if l, ok := PaperLabel(mk(cogent, "Comcast", JanFeb, 20)); !ok || l != 1 {
		t.Fatal("affected peak Jan-Feb should label external")
	}
	if _, ok := PaperLabel(mk(cogent, "Cox", JanFeb, 20)); ok {
		t.Fatal("Cox Jan-Feb peak should be unlabeled")
	}
	if l, ok := PaperLabel(mk(cogent, "Comcast", MarApr, 3)); !ok || l != 0 {
		t.Fatal("Mar-Apr off-peak should label self-induced")
	}
	if _, ok := PaperLabel(mk(cogent, "Comcast", MarApr, 20)); ok {
		t.Fatal("Mar-Apr peak should be unlabeled")
	}
}

func TestGenerateDisputeSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("emulation is expensive")
	}
	opt := DisputeOptions{
		TestsPerCell: 3,
		Hours:        []int{3, 21},
		Sites:        []Site{{Transit: "Cogent", City: "LAX"}, {Transit: "Level3", City: "ATL"}},
		ISPs:         []string{"Comcast", "Cox"},
		Duration:     5 * time.Second,
		Seed:         77,
	}
	tests, err := Dispute2014(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(tests) < opt.Total()*3/4 {
		t.Fatalf("only %d of %d tests valid", len(tests), opt.Total())
	}
	// Affected cell at peak must be congested; Level3 dispute congestion
	// never occurs (background noise aside, hour 3 load is low).
	var sawAffectedCongested bool
	for _, ts := range tests {
		if ts.Site.Transit == "Cogent" && ts.ISP == "Comcast" && ts.Period == JanFeb && ts.Hour == 21 {
			if !ts.Congested {
				t.Fatal("affected peak cell not congested")
			}
			sawAffectedCongested = true
		}
	}
	if !sawAffectedCongested {
		t.Fatal("no affected peak tests generated")
	}
	// Diurnal gap: Cogent/Comcast Jan-Feb peak throughput must fall well
	// below its off-peak throughput; Cox must not show that gap.
	cogent := Site{Transit: "Cogent", City: "LAX"}
	comcast := DiurnalThroughput(tests, cogent, "Comcast", JanFeb)
	if comcast[21] > 0.7*comcast[3] {
		t.Fatalf("no diurnal dip: peak %.1f vs off-peak %.1f Mbps", comcast[21], comcast[3])
	}
}

func TestTSLPLabelRule(t *testing.T) {
	mk := func(tput float64, minRTT time.Duration) *TSLPTest {
		r := &NDTResult{ThroughputBps: tput, FeaturesValid: true}
		r.Features.MinRTT = minRTT
		return &TSLPTest{Result: r}
	}
	if l, ok := TSLPLabel(mk(5e6, 40*time.Millisecond)); !ok || l != 1 {
		t.Fatal("slow + elevated should label external")
	}
	if l, ok := TSLPLabel(mk(23e6, 17*time.Millisecond)); !ok || l != 0 {
		t.Fatal("fast + low should label self")
	}
	if _, ok := TSLPLabel(mk(17e6, 25*time.Millisecond)); ok {
		t.Fatal("gray zone should be unlabeled")
	}
	if _, ok := TSLPLabel(&TSLPTest{Result: &NDTResult{}}); ok {
		t.Fatal("invalid features should be unlabeled")
	}
}

func TestGenerateTSLPSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("emulation is expensive")
	}
	opt := TSLPOptions{
		Days:         2,
		EpisodeProb:  1, // force episodes so the test sees both classes
		Duration:     8 * time.Second,
		OffPeakEvery: 4 * time.Hour,
		PeakEvery:    30 * time.Minute,
		Seed:         11,
	}
	tests, err := TSLP2017(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(tests) == 0 {
		t.Fatal("no tests generated")
	}
	var self, ext, congested int
	for i := range tests {
		ts := &tests[i]
		if ts.Congested {
			congested++
			// Ground truth congestion must show in the TSLP far probe.
			if ts.Result.FarRTT-ts.Result.NearRTT < 5*time.Millisecond {
				t.Fatalf("congested test day=%d hour=%d: far-near gap %v", ts.Day, ts.Hour, ts.Result.FarRTT-ts.Result.NearRTT)
			}
		}
		if l, ok := TSLPLabel(ts); ok {
			if l == 0 {
				self++
			} else {
				ext++
			}
			// The label rule must agree with ground truth.
			if (l == 1) != ts.Congested {
				t.Fatalf("label %d contradicts ground truth congested=%v (tput=%.1fM minRTT=%v)",
					l, ts.Congested, ts.Result.ThroughputBps/1e6, ts.Result.Features.MinRTT)
			}
		}
	}
	if congested == 0 || self == 0 || ext == 0 {
		t.Fatalf("classes missing: congested=%d self=%d ext=%d of %d", congested, self, ext, len(tests))
	}
}
