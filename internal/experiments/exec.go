package experiments

import (
	"fmt"
	"time"

	"tcpsig/internal/checkpoint"
	"tcpsig/internal/core"
	"tcpsig/internal/mlab"
	"tcpsig/internal/stats"
	"tcpsig/internal/testbed"
)

// Exec runs the paper's experiments. Every experiment fans its emulated
// runs out over Workers (0/1 = serial, negative = GOMAXPROCS) with
// byte-identical output at every worker count. Setting Checkpoint persists
// each experiment stage under its own name — "sweep", "fig1", "dispute",
// "tslp", "multiplexing", "variants" — so a killed pipeline resumes by
// replaying completed chunks (see internal/checkpoint); without it every
// stage runs in memory.
type Exec struct {
	Scale   Scale
	Seed    int64
	Workers int

	// Checkpoint is the stage-root spec; nil disables checkpointing.
	Checkpoint *checkpoint.Spec
}

// runRecord is the persisted per-run form for checkpointed experiment
// fan-outs: the result, or its error reduced to a string. It must
// round-trip losslessly through JSON — the checkpoint codec contract.
type runRecord struct {
	Res *testbed.Result `json:"res,omitempty"`
	Err string          `json:"err,omitempty"`
}

// runAll executes the planned configs and returns their results slotted
// by plan index, nil for a run that failed the validity filter, so every
// aggregation consumes them in the order the serial loops did. Chunks
// persist under the named stage when e.Checkpoint is set; identity
// deterministically describes the plan (see checkpoint.Run).
func (e Exec) runAll(specs []testbed.Config, stage, identity string) ([]*testbed.Result, error) {
	out := make([]*testbed.Result, len(specs))
	err := checkpoint.Run(e.Checkpoint.Stage(stage), identity, len(specs), e.Workers,
		func(i int) runRecord {
			res, err := testbed.Run(specs[i])
			if err != nil {
				return runRecord{Err: err.Error()}
			}
			return runRecord{Res: res}
		},
		func(i int, v runRecord) { out[i] = v.Res })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SweepResults runs the §3.1 controlled-experiment grid once so Fig3, Fig4
// and model training can share it (checkpoint stage "sweep").
func (e Exec) SweepResults(progress func(done, total int)) ([]*testbed.Result, error) {
	opt := testbed.SweepOptions{Seed: e.Seed, Workers: e.Workers, Progress: progress,
		Checkpoint: e.Checkpoint.Stage("sweep")}
	switch e.Scale {
	case Quick:
		opt = opt.QuickGrid()
		opt.RunsPerConfig = 5
	case Full:
		opt.RunsPerConfig = 6
		opt.Duration = 5 * time.Second
	case Paper:
		opt.RunsPerConfig = 50
	}
	return testbed.SweepCheckpointed(opt)
}

// Fig1 reproduces Figure 1: the paper's illustrative setup of a 20 Mbps
// access link with a 100 ms buffer and 20 ms latency behind the 950 Mbps /
// 50 ms interconnect, run with and without interconnect congestion
// (checkpoint stage "fig1").
func (e Exec) Fig1() (Fig1Result, error) {
	runs, dur := fig1Params(e.Scale)
	specs := fig1Plan(runs, dur, e.Seed)
	identity := fmt.Sprintf("experiments.Fig1 v1 seed=%d runs=%d dur=%s", e.Seed, runs, dur)
	outs, err := e.runAll(specs, "fig1", identity)
	if err != nil {
		return Fig1Result{}, err
	}
	var out Fig1Result
	var diffs [2][]float64
	var covs [2][]float64
	for _, res := range outs {
		if res == nil {
			continue
		}
		out.Runs++
		diffMs := float64(res.Features.MaxRTT-res.Features.MinRTT) / float64(time.Millisecond)
		diffs[res.Scenario] = append(diffs[res.Scenario], diffMs)
		covs[res.Scenario] = append(covs[res.Scenario], res.Features.CoV)
	}
	for class := 0; class < 2; class++ {
		out.MaxMinDiffMs[class] = stats.CDF(diffs[class])
		out.CoV[class] = stats.CDF(covs[class])
	}
	return out, nil
}

// Multiplexing reproduces §3.3: external-congestion detection as TGCong
// concurrency drops (100/50/20/10), and self-induced detection with 1/2/5
// competing access flows, on a 50 Mbps access link (checkpoint stage
// "multiplexing"). Each run's seed is derived from its flat plan index
// (cong groups first, then access-cross groups), reproducing the
// historical shared counter.
func (e Exec) Multiplexing(clf *core.Classifier) ([]MultiplexPoint, error) {
	runs := 3
	dur := 5 * time.Second
	switch e.Scale {
	case Full:
		runs = 8
	case Paper:
		runs = 25
		dur = 10 * time.Second
	}
	base := testbed.AccessParams{
		RateMbps: 50,
		Latency:  20 * time.Millisecond,
		Jitter:   2 * time.Millisecond,
		Buffer:   100 * time.Millisecond,
	}
	congGroups := []int{100, 50, 20, 10}
	crossGroups := []int{1, 2, 5}
	specs := make([]testbed.Config, 0, (len(congGroups)+len(crossGroups))*runs)
	for _, cong := range congGroups {
		for i := 0; i < runs; i++ {
			specs = append(specs, testbed.Config{
				Access: base, CongFlows: cong, TransCross: true,
				Duration: dur, WarmUp: 4 * time.Second,
				Seed: e.Seed + 1 + int64(len(specs)),
			})
		}
	}
	for _, cross := range crossGroups {
		for i := 0; i < runs; i++ {
			specs = append(specs, testbed.Config{
				Access: base, AccessCrossFlows: cross, TransCross: true,
				Duration: dur, Seed: e.Seed + 1 + int64(len(specs)),
			})
		}
	}
	identity := fmt.Sprintf("experiments.Multiplexing v1 seed=%d runs=%d dur=%s cong=%v cross=%v",
		e.Seed, runs, dur, congGroups, crossGroups)
	outcomes, err := e.runAll(specs, "multiplexing", identity)
	if err != nil {
		return nil, err
	}

	var out []MultiplexPoint
	idx := 0
	for _, cong := range congGroups {
		match, total := 0, 0
		for i := 0; i < runs; i++ {
			res := outcomes[idx]
			idx++
			if res == nil {
				continue
			}
			// Evaluate against the labeling rule, as the paper's
			// accuracy numbers do: runs whose slow start reached the
			// access threshold despite cross traffic are the
			// expected confusion, not classifier errors.
			if res.Label(0.8) != testbed.External {
				continue
			}
			total++
			if clf.ClassifyFeatures(res.Features).Class == core.External {
				match++
			}
		}
		out = append(out, MultiplexPoint{CongFlows: cong, FracExpected: frac(match, total), Runs: total})
	}
	for _, cross := range crossGroups {
		match, total := 0, 0
		for i := 0; i < runs; i++ {
			res := outcomes[idx]
			idx++
			if res == nil {
				continue
			}
			total++
			if clf.ClassifyFeatures(res.Features).Class == core.SelfInduced {
				match++
			}
		}
		out = append(out, MultiplexPoint{AccessCross: cross, FracExpected: frac(match, total), Runs: total})
	}
	return out, nil
}

// DisputeData generates the Dispute2014 dataset behind Figures 5, 7, 8
// and 9 at the requested scale (checkpoint stage "dispute").
func (e Exec) DisputeData(progress func(done, total int)) ([]mlab.DisputeTest, error) {
	opt := mlab.DisputeOptions{Seed: e.Seed, Workers: e.Workers, Progress: progress,
		Checkpoint: e.Checkpoint.Stage("dispute")}
	switch e.Scale {
	case Quick:
		opt.TestsPerCell = 1
		opt.Hours = []int{3, 5, 18, 21}
		opt.Duration = 5 * time.Second
		opt.Sites = []mlab.Site{{Transit: "Cogent", City: "LAX"}, {Transit: "Level3", City: "ATL"}}
		opt.ISPs = []string{"Comcast", "Cox"}
	case Full:
		opt.TestsPerCell = 2
		opt.Hours = []int{1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23}
		opt.Duration = 5 * time.Second
	case Paper:
		opt.TestsPerCell = 4
		opt.Duration = 10 * time.Second
	}
	return mlab.Dispute2014(opt)
}

// TSLPData generates the TSLP2017 campaign behind Figure 6 and §5.4 at
// the requested scale (checkpoint stage "tslp").
func (e Exec) TSLPData(progress func(done, total int)) ([]mlab.TSLPTest, error) {
	opt := mlab.TSLPOptions{Seed: e.Seed, Workers: e.Workers, Progress: progress,
		Checkpoint: e.Checkpoint.Stage("tslp")}
	switch e.Scale {
	case Quick:
		opt.Days = 3
		opt.Duration = 8 * time.Second
		opt.OffPeakEvery = 4 * time.Hour
		opt.PeakEvery = 30 * time.Minute
		opt.EpisodeProb = 0.6
	case Full:
		opt.Days = 10
		opt.PeakEvery = 30 * time.Minute
	case Paper:
		opt.Days = 75
	}
	return mlab.TSLP2017(opt)
}
