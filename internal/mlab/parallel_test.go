package mlab

import (
	"reflect"
	"testing"
	"time"
)

// TestDisputeParallelMatchesSerial checks the plan/execute split: all
// shared-rng draws (background congestion, plans, path latencies/buffers)
// happen in the serial planning pass, so the generated dataset must be
// identical at every worker count.
func TestDisputeParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("emulation is expensive")
	}
	opt := DisputeOptions{
		TestsPerCell: 2,
		Hours:        []int{3, 21},
		Sites:        []Site{{Transit: "Cogent", City: "LAX"}},
		ISPs:         []string{"Comcast"},
		Duration:     2 * time.Second,
		Seed:         9,
	}
	serialOpt := opt
	serialOpt.Workers = 1
	parallelOpt := opt
	parallelOpt.Workers = 8
	serial, err := Dispute2014(serialOpt)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Dispute2014(parallelOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) == 0 {
		t.Fatal("no tests generated")
	}
	if !reflect.DeepEqual(serial, par) {
		t.Errorf("workers=8 dataset differs from serial:\nserial:   %+v\nparallel: %+v", serial, par)
	}
}

// TestTSLPPlanSeeds pins the campaign planner: per-test seeds follow the
// historical base+1+index counter, and with EpisodeProb=1 every day draws
// an evening episode window inside 18:00-23:59.
func TestTSLPPlanSeeds(t *testing.T) {
	opt := TSLPOptions{Days: 3, EpisodeProb: 1, Seed: 30}.withDefaults()
	specs := planTSLP2017(opt)
	if len(specs) == 0 {
		t.Fatal("empty plan")
	}
	episodes := 0
	for i, sp := range specs {
		if want := opt.Seed + 1 + int64(i); sp.path.Seed != want {
			t.Fatalf("test %d: seed %d, want %d", i, sp.path.Seed, want)
		}
		if sp.test.Congested {
			episodes++
			if sp.test.Hour < 18 {
				t.Errorf("test %d: congested at hour %d, episodes are evening-only", i, sp.test.Hour)
			}
		}
	}
	if episodes == 0 {
		t.Error("EpisodeProb=1 produced no congested tests")
	}
	// Planning must be pure: a second pass gives the identical plan.
	if !reflect.DeepEqual(specs, planTSLP2017(opt)) {
		t.Error("planTSLP2017 is not deterministic")
	}
}
