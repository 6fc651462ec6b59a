package experiments

import (
	"errors"
	"fmt"
	"time"

	"tcpsig/internal/checkpoint"
	"tcpsig/internal/core"
	"tcpsig/internal/mlab"
	"tcpsig/internal/stats"
	"tcpsig/internal/testbed"
)

// Exec runs the paper's experiments with optional durable progress. The
// zero value (plus a Scale/Seed/Workers) behaves exactly like the
// package-level functions; setting Checkpoint persists each experiment
// stage under its own name — "sweep", "fig1", "dispute", "tslp",
// "multiplexing", "variants" — so a killed pipeline resumes by replaying
// completed chunks (see internal/checkpoint).
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

// runAll is the checkpoint-aware twin of the package-level runAll: it
// executes the planned configs and returns outcomes slotted by plan
// index, persisting chunks under the named stage when e.Checkpoint is
// set. identity deterministically describes the plan (see
// checkpoint.Run).
func (e Exec) runAll(specs []testbed.Config, stage, identity string) ([]runOut, error) {
	out := make([]runOut, len(specs))
	err := checkpoint.Run(e.Checkpoint.Stage(stage), identity, len(specs), e.Workers,
		func(i int) runRecord {
			res, err := testbed.Run(specs[i])
			if err != nil {
				return runRecord{Err: err.Error()}
			}
			return runRecord{Res: res}
		},
		func(i int, v runRecord) {
			if v.Err != "" {
				out[i] = runOut{err: errors.New(v.Err)}
				return
			}
			out[i] = runOut{res: v.Res}
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// sweepOpts builds the §3.1 grid options for a scale (see SweepResults).
func sweepOpts(scale Scale, seed int64, workers int, progress func(done, total int)) testbed.SweepOptions {
	opt := testbed.SweepOptions{Seed: seed, Workers: workers, Progress: progress}
	switch scale {
	case Quick:
		opt = opt.QuickGrid()
		opt.RunsPerConfig = 5
	case Full:
		opt.RunsPerConfig = 6
		opt.Duration = 5 * time.Second
	case Paper:
		opt.RunsPerConfig = 50
	}
	return opt
}

// SweepResults runs the §3.1 controlled-experiment grid (checkpoint
// stage "sweep").
func (e Exec) SweepResults(progress func(done, total int)) ([]*testbed.Result, error) {
	opt := sweepOpts(e.Scale, e.Seed, e.Workers, progress)
	opt.Checkpoint = e.Checkpoint.Stage("sweep")
	return testbed.SweepCheckpointed(opt)
}

// Fig1 reproduces Figure 1 (checkpoint stage "fig1").
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
	for _, v := range outs {
		if v.err != nil {
			continue
		}
		res := v.res
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

// Multiplexing reproduces §3.3 (checkpoint stage "multiplexing").
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
			v := outcomes[idx]
			idx++
			if v.err != nil {
				continue
			}
			// Evaluate against the labeling rule, as the paper's
			// accuracy numbers do: runs whose slow start reached the
			// access threshold despite cross traffic are the
			// expected confusion, not classifier errors.
			if v.res.Label(0.8) != testbed.External {
				continue
			}
			total++
			if clf.ClassifyFeatures(v.res.Features).Class == core.External {
				match++
			}
		}
		out = append(out, MultiplexPoint{CongFlows: cong, FracExpected: frac(match, total), Runs: total})
	}
	for _, cross := range crossGroups {
		match, total := 0, 0
		for i := 0; i < runs; i++ {
			v := outcomes[idx]
			idx++
			if v.err != nil {
				continue
			}
			total++
			if clf.ClassifyFeatures(v.res.Features).Class == core.SelfInduced {
				match++
			}
		}
		out = append(out, MultiplexPoint{AccessCross: cross, FracExpected: frac(match, total), Runs: total})
	}
	return out, nil
}

// disputeOpts builds the Dispute2014 campaign options for a scale (see
// DisputeData).
func disputeOpts(scale Scale, seed int64, workers int, progress func(done, total int)) mlab.DisputeOptions {
	opt := mlab.DisputeOptions{Seed: seed, Workers: workers, Progress: progress}
	switch scale {
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
	return opt
}

// DisputeData generates the Dispute2014 dataset (checkpoint stage
// "dispute").
func (e Exec) DisputeData(progress func(done, total int)) ([]mlab.DisputeTest, error) {
	opt := disputeOpts(e.Scale, e.Seed, e.Workers, progress)
	opt.Checkpoint = e.Checkpoint.Stage("dispute")
	return mlab.Dispute2014(opt)
}

// tslpOpts builds the TSLP2017 campaign options for a scale (see
// TSLPData).
func tslpOpts(scale Scale, seed int64, workers int, progress func(done int)) mlab.TSLPOptions {
	opt := mlab.TSLPOptions{Seed: seed, Workers: workers, Progress: progress}
	switch scale {
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
	return opt
}

// TSLPData generates the TSLP2017 campaign (checkpoint stage "tslp").
func (e Exec) TSLPData(progress func(done int)) ([]mlab.TSLPTest, error) {
	opt := tslpOpts(e.Scale, e.Seed, e.Workers, progress)
	opt.Checkpoint = e.Checkpoint.Stage("tslp")
	return mlab.TSLP2017(opt)
}
