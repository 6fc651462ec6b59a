package testbed

import (
	"testing"
	"time"

	"tcpsig/internal/faults"
	"tcpsig/internal/netem"
	"tcpsig/internal/sim"
)

// quickFaultSweep is a small grid at 50 Mbps access, where external
// congestion detection is clean (see TestExternalSignature), so the clean
// regime trains and scores unambiguously.
func quickFaultSweep() SweepOptions {
	return SweepOptions{
		Rates:         []float64{50},
		Losses:        []float64{0},
		Latencies:     []time.Duration{20 * time.Millisecond},
		Buffers:       []time.Duration{20 * time.Millisecond, 100 * time.Millisecond},
		RunsPerConfig: 2,
		Duration:      5 * time.Second,
		Seed:          1,
	}
}

func TestSweepFaultsReport(t *testing.T) {
	if testing.Short() {
		t.Skip("emulation is expensive")
	}
	regimes := []FaultRegime{
		{Name: "clean"},
		{Name: "ge-loss", Factory: func(seed int64) netem.FaultInjector {
			return faults.NewGilbertElliott(seed, 0.01, 0.3, 0, 0.8)
		}},
		{Name: "duplicate", Factory: func(seed int64) netem.FaultInjector {
			return faults.NewDuplicate(seed, 0.05)
		}},
	}
	rep, err := SweepFaults(FaultSweepOptions{Sweep: quickFaultSweep(), Regimes: regimes})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Regimes) != 3 {
		t.Fatalf("got %d regime rows, want 3", len(rep.Regimes))
	}

	clean := rep.Regime("clean")
	if clean == nil {
		t.Fatal("no clean regime in report")
	}
	total := quickFaultSweep().Total()
	if clean.Runs != total {
		t.Fatalf("clean.Runs = %d, want %d", clean.Runs, total)
	}
	if clean.Accuracy() < 0.75 {
		t.Fatalf("clean accuracy %.2f, want >= 0.75\n%s", clean.Accuracy(), rep)
	}

	// The clean regime must reproduce the seed sweep exactly: same valid
	// count, and the report's tree must score those results to the same
	// accuracy.
	base := mustSweep(t, quickFaultSweep())
	if clean.Valid != len(base) {
		t.Fatalf("clean.Valid = %d, seed sweep produced %d", clean.Valid, len(base))
	}
	correct := 0
	for _, r := range base {
		if rep.Tree.Predict(r.Features.Values()) == r.Scenario {
			correct++
		}
	}
	if correct != clean.Correct {
		t.Fatalf("clean.Correct = %d, recomputed from seed sweep = %d", clean.Correct, correct)
	}

	for _, row := range rep.Regimes {
		if row.Runs != total {
			t.Errorf("regime %s: Runs = %d, want %d", row.Regime, row.Runs, total)
		}
		if row.Valid > row.Runs || row.Correct > row.Valid {
			t.Errorf("regime %s: inconsistent counts %+v", row.Regime, row)
		}
	}
	if rep.String() == "" {
		t.Fatal("empty report rendering")
	}
}

func TestFaultedSweepDeterministicAndPerturbed(t *testing.T) {
	if testing.Short() {
		t.Skip("emulation is expensive")
	}
	sw := quickFaultSweep()
	sw.Buffers = []time.Duration{100 * time.Millisecond}
	sw.Faults = func(seed int64) netem.FaultInjector {
		return faults.NewGilbertElliott(seed, 0.01, 0.3, 0, 0.8)
	}
	a := mustSweep(t, sw)
	b := mustSweep(t, sw)
	if len(a) != len(b) {
		t.Fatalf("re-run produced %d results vs %d", len(b), len(a))
	}
	for i := range a {
		if a[i].Features != b[i].Features {
			t.Fatalf("run %d features differ between identical seeded sweeps:\n%+v\n%+v", i, a[i].Features, b[i].Features)
		}
	}

	// The injected faults must actually perturb the measurement relative
	// to the clean sweep with the same seeds.
	clean := sw
	clean.Faults = nil
	c := mustSweep(t, clean)
	perturbed := len(a) != len(c)
	for i := 0; !perturbed && i < len(a) && i < len(c); i++ {
		if a[i].Features != c[i].Features {
			perturbed = true
		}
	}
	if !perturbed {
		t.Fatal("Gilbert-Elliott regime left every run identical to the clean sweep")
	}
}

// TestFlapRegimeNegativeSeed is the satellite-3 regression: the flap
// regime's phase derivation must stay in [0, Period) for negative seeds and
// — because Go's % differs from the Euclidean mod by exactly one whole
// 2 s period there — produce the same outage schedule the historical
// seed%20 formula did for every seed.
func TestFlapRegimeNegativeSeed(t *testing.T) {
	var flap FaultRegime
	for _, r := range DefaultFaultRegimes() {
		if r.Name == "flap" {
			flap = r
		}
	}
	if flap.Factory == nil {
		t.Fatal("no flap regime registered")
	}
	for _, seed := range []int64{-1, -7, -20, -39, 0, 7, 19} {
		inj := flap.Factory(seed)
		lf, ok := inj.(*faults.LinkFlap)
		if !ok {
			t.Fatalf("seed %d: flap factory built %T, want *faults.LinkFlap", seed, inj)
		}
		if lf.Phase < 0 || lf.Phase >= lf.Period {
			t.Errorf("seed %d: phase %v outside [0, %v)", seed, lf.Phase, lf.Period)
		}
		// The historical schedule used phase seed%20*100ms directly
		// (negative for negative seeds); IsDown must agree everywhere.
		old := faults.NewLinkFlap(lf.Period, lf.Down, time.Duration(seed%20)*100*time.Millisecond)
		for at := sim.Time(0); at < 6*time.Second; at += 25 * time.Millisecond {
			if lf.IsDown(at) != old.IsDown(at) {
				t.Fatalf("seed %d: schedule diverges from historical phase at %v", seed, at)
			}
		}
		// Seeds congruent mod 20 must share a schedule.
		other := flap.Factory(seed + 20).(*faults.LinkFlap)
		if other.Phase != lf.Phase {
			t.Errorf("seed %d and %d: phases %v vs %v", seed, seed+20, lf.Phase, other.Phase)
		}
	}
}
