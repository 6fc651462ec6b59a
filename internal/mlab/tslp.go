package mlab

import (
	"fmt"
	"math/rand"
	"time"

	"tcpsig/internal/checkpoint"
)

// TSLPOptions configures the targeted 2017 experiment: periodic NDT tests
// between a single Comcast client (25 Mbps plan, ~18 ms baseline to the
// server) and a TATA-hosted M-Lab server, across an interconnect that
// congests in evening episodes.
type TSLPOptions struct {
	// Days is the measurement campaign length (the paper ran ~75 days;
	// default 14 keeps runtimes moderate — scale up via ccsig figures -scale).
	Days int

	// PlanMbps is the client's service plan (paper: 25).
	PlanMbps float64

	// OffPeakEvery and PeakEvery are the test cadences (paper: hourly
	// off-peak, every 15 minutes during peak).
	OffPeakEvery time.Duration
	PeakEvery    time.Duration

	// EpisodeProb is the per-day probability of an evening congestion
	// episode.
	EpisodeProb float64

	// Duration is the per-test length (default 10 s).
	Duration time.Duration

	// Seed drives everything.
	Seed int64

	// Progress, when non-nil, is called after each test, always in test
	// order and never concurrently, regardless of Workers.
	Progress func(done, total int)

	// Workers is the number of tests emulated concurrently. 0 or 1 runs
	// serially; negative means GOMAXPROCS. Output is byte-identical at
	// every worker count.
	Workers int

	// Checkpoint, when non-nil with a Dir, persists completed chunks of
	// the campaign and lets TSLP2017 resume from them (see
	// internal/checkpoint).
	Checkpoint *checkpoint.Spec
}

func (o TSLPOptions) withDefaults() TSLPOptions {
	if o.Days == 0 {
		o.Days = 14
	}
	if o.PlanMbps == 0 {
		o.PlanMbps = 25
	}
	if o.OffPeakEvery == 0 {
		o.OffPeakEvery = time.Hour
	}
	if o.PeakEvery == 0 {
		o.PeakEvery = 15 * time.Minute
	}
	if o.EpisodeProb == 0 {
		o.EpisodeProb = 0.3
	}
	if o.Duration == 0 {
		o.Duration = 10 * time.Second
	}
	return o
}

// TSLPTest is one periodic measurement: the TSLP probe pair and the NDT
// result, plus the ground-truth congestion state.
type TSLPTest struct {
	Day    int
	Hour   int
	Minute int

	// Congested is the ground truth: an interconnect congestion episode
	// was active during the test.
	Congested bool

	Result *NDTResult
}

// At returns the test's position on the campaign timeline.
func (t *TSLPTest) At() time.Duration {
	return time.Duration(t.Day)*24*time.Hour + time.Duration(t.Hour)*time.Hour + time.Duration(t.Minute)*time.Minute
}

// TSLPLabel applies the paper's §4.2 ground-truth labeling rule for the
// 25 Mbps / 18 ms baseline path: throughput below 15 Mbps with min RTT above
// 30 ms is externally limited; throughput above 20 Mbps with min RTT below
// 20 ms is self-induced; anything else is left unlabeled.
func TSLPLabel(t *TSLPTest) (label int, ok bool) {
	if t.Result == nil || !t.Result.FeaturesValid {
		return 0, false
	}
	tput := t.Result.ThroughputBps
	minRTT := t.Result.Features.MinRTT
	switch {
	case tput < 15e6 && minRTT > 30*time.Millisecond:
		return 1, true // external
	case tput > 20e6 && minRTT < 20*time.Millisecond:
		return 0, true // self-induced
	default:
		return 0, false
	}
}

// tslpPath builds the per-test path parameters. The paper's path has ~18 ms
// baseline RTT and small (~15-20 ms) buffers at both the access link and the
// interconnect — the worst case for a buffer-based signature.
func tslpPath(o TSLPOptions, congested bool, seed int64) PathParams {
	cong := 0
	if congested {
		// Enough flows that the test flow's interconnect share falls
		// clearly below the 25 Mbps plan.
		cong = 24
	}
	return PathParams{
		AccessMbps:    o.PlanMbps,
		AccessLatency: 12 * time.Millisecond,
		AccessBuffer:  20 * time.Millisecond,
		InterMbps:     200,
		InterBuffer:   15 * time.Millisecond,
		CongFlows:     cong,
		Duration:      o.Duration,
		Seed:          seed,
	}
}

// tslpSpec is one planned campaign test with its shared-rng draws already
// resolved.
type tslpSpec struct {
	test TSLPTest // Result still nil
	path PathParams
}

// planTSLP2017 draws every day's episode window serially (consuming the
// shared rng in the historical order) and expands the test cadence into a
// flat list, assigning each test the seed the old `seed++` counter gave
// it (base+1+index).
func planTSLP2017(opt TSLPOptions) []tslpSpec {
	rng := rand.New(rand.NewSource(opt.Seed))
	var specs []tslpSpec
	for day := 0; day < opt.Days; day++ {
		// Draw the day's episode window.
		episodeStart, episodeEnd := -1, -1
		if rng.Float64() < opt.EpisodeProb {
			episodeStart = 18 + rng.Intn(3)             // 18:00-20:59
			episodeEnd = episodeStart + 1 + rng.Intn(3) // 1-3 hours
		}
		for hour := 0; hour < 24; hour++ {
			cadence := opt.OffPeakEvery
			if PeakHour(hour) {
				cadence = opt.PeakEvery
			}
			for min := 0; min < 60; min += int(cadence / time.Minute) {
				congested := hour >= episodeStart && hour < episodeEnd
				seed := opt.Seed + 1 + int64(len(specs))
				specs = append(specs, tslpSpec{
					test: TSLPTest{Day: day, Hour: hour, Minute: min, Congested: congested},
					path: tslpPath(opt, congested, seed),
				})
				if cadence >= time.Hour {
					break
				}
			}
		}
	}
	return specs
}

// tslpIdentity describes the campaign plan for the checkpoint manifest.
func tslpIdentity(o TSLPOptions) string {
	return fmt.Sprintf("mlab.TSLP2017 v1 seed=%d days=%d plan=%g offpeak=%s peak=%s episode=%g dur=%s",
		o.Seed, o.Days, o.PlanMbps, o.OffPeakEvery, o.PeakEvery, o.EpisodeProb, o.Duration)
}

// TSLP2017 runs the campaign: an episode schedule is drawn per day
// (evening hours, 1-3 hours long), then tests execute on the paper's cadence
// with in-emulation TSLP probes, fanned out across opt.Workers with
// byte-identical output at every worker count. With opt.Checkpoint set,
// completed chunks persist on disk and a resumed run replays them.
func TSLP2017(opt TSLPOptions) ([]TSLPTest, error) {
	opt = opt.withDefaults()
	specs := planTSLP2017(opt)
	out := make([]TSLPTest, 0, len(specs))
	err := checkpoint.Run(opt.Checkpoint, tslpIdentity(opt), len(specs), opt.Workers,
		func(i int) ndtRecord {
			res, err := RunNDT(specs[i].path)
			if err != nil {
				return ndtRecord{Err: err.Error()}
			}
			return ndtRecord{Res: res}
		},
		func(i int, v ndtRecord) {
			if opt.Progress != nil {
				opt.Progress(i+1, len(specs))
			}
			if v.Res == nil {
				return
			}
			t := specs[i].test
			t.Result = v.Res
			out = append(out, t)
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}
