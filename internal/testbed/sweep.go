package testbed

import (
	"fmt"
	"time"

	"tcpsig/internal/checkpoint"
	"tcpsig/internal/dtree"
	"tcpsig/internal/netem"
	"tcpsig/internal/obs"
	"tcpsig/internal/tcpsim"
)

// Paper parameter grids (§3.1).
var (
	// PaperRatesMbps are the shaped access-link bandwidths.
	PaperRatesMbps = []float64{10, 20, 50}

	// PaperLosses are the access-link loss probabilities (0.02%, 0.05%).
	PaperLosses = []float64{0, 0.0002, 0.0005}

	// PaperLatencies are the added access-link latencies.
	PaperLatencies = []time.Duration{20 * time.Millisecond, 40 * time.Millisecond}

	// PaperBuffers are the access-link buffer depths.
	PaperBuffers = []time.Duration{20 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond}
)

// SweepOptions configures a controlled-experiment sweep over the testbed
// parameter grid, running both the self-induced and external scenarios.
type SweepOptions struct {
	Rates     []float64
	Losses    []float64
	Latencies []time.Duration
	Buffers   []time.Duration

	// RunsPerConfig is the number of repetitions per parameter
	// combination and scenario (the paper ran 50).
	RunsPerConfig int

	// CongFlows is the TGCong concurrency for external runs (paper: 100).
	CongFlows int

	// Duration is the per-test length (default 10 s; slow start and thus
	// the features are unaffected by shortening it).
	Duration time.Duration

	// Seed seeds the whole sweep deterministically.
	Seed int64

	// CC optionally overrides the test flow's congestion controller.
	CC func() tcpsim.CongestionControl

	// Faults, when non-nil, is the per-run fault-injector factory passed
	// through to every Config (see Config.Faults and SweepFaults).
	Faults func(seed int64) netem.FaultInjector

	// Progress, when non-nil, is called after each run, always in run
	// order and never concurrently, regardless of Workers.
	Progress func(done, total int)

	// Workers is the number of runs executed concurrently. 0 or 1 runs
	// the grid serially; negative means GOMAXPROCS. Every worker count
	// produces byte-identical output: run seeds are derived from grid
	// position, results are collected in run order, and metrics are
	// folded in run order (see DESIGN.md, "Concurrency model").
	Workers int

	// Metrics, when non-nil, accumulates per-cell summaries across the
	// sweep: run/valid/invalid counters and feature histograms keyed by
	// the cell's parameters and scenario. This is sweep-level aggregation;
	// it is separate from any per-run Config.Obs sink.
	Metrics *obs.Registry

	// LiveMetrics, when non-nil, receives each run's metric snapshot from
	// the ordered collector — in run order, never concurrently — so a
	// wall-clock consumer (telemetry.Live) can aggregate mid-sweep. It is
	// a plain data callback: this package never imports the telemetry
	// plane, and enabling it does not change results, Metrics, Progress or
	// Stream output. Per-run registries are allocated when either Metrics
	// or LiveMetrics is set.
	LiveMetrics func([]obs.Metric)

	// Checkpoint, when non-nil with a Dir, makes SweepCheckpointed
	// persist completed chunks and resume from them (see
	// internal/checkpoint).
	Checkpoint *checkpoint.Spec

	// Stream, when non-nil, receives every valid result in run order as
	// it is collected. SweepCheckpointed then returns a nil slice instead
	// of accumulating, so arbitrarily large sweeps never hold the whole
	// dataset in memory.
	Stream func(*Result)
}

// cellName formats one grid cell's metric-name prefix deterministically.
func cellName(rate, loss float64, lat, buf time.Duration, cong int) string {
	scen := "self"
	if cong > 0 {
		scen = "external"
	}
	return fmt.Sprintf("sweep.cell{rate=%gM,loss=%g,lat=%s,buf=%s,scen=%s}",
		rate, loss, lat, buf, scen)
}

func (o SweepOptions) withDefaults() SweepOptions {
	if o.Rates == nil {
		o.Rates = PaperRatesMbps
	}
	if o.Losses == nil {
		o.Losses = PaperLosses
	}
	if o.Latencies == nil {
		o.Latencies = PaperLatencies
	}
	if o.Buffers == nil {
		o.Buffers = PaperBuffers
	}
	if o.RunsPerConfig == 0 {
		o.RunsPerConfig = 10
	}
	if o.CongFlows == 0 {
		o.CongFlows = 100
	}
	if o.Duration == 0 {
		o.Duration = 10 * time.Second
	}
	return o
}

// QuickGrid narrows o to the quick grid: one 20 Mbps lossless 20 ms cell,
// 5 s tests, and two buffers. The paper's smallest buffer is included so
// quick models still see low-CoV self-induced examples.
func (o SweepOptions) QuickGrid() SweepOptions {
	o.Rates = []float64{20}
	o.Losses = []float64{0}
	o.Latencies = []time.Duration{20 * time.Millisecond}
	o.Buffers = []time.Duration{20 * time.Millisecond, 100 * time.Millisecond}
	o.Duration = 5 * time.Second
	return o
}

// Total returns the number of runs the sweep will execute.
func (o SweepOptions) Total() int {
	o = o.withDefaults()
	return len(o.Rates) * len(o.Losses) * len(o.Latencies) * len(o.Buffers) * o.RunsPerConfig * 2
}

// sweepSeed derives a run's seed purely from its flat grid index (nesting
// order: rate, loss, latency, buffer, scenario, repetition). The serial
// code historically incremented a shared counter before each run, so run
// i carried base+1+i; deriving the same value from the index keeps every
// published seed stable while freeing the runs from execution order.
func sweepSeed(base int64, index int) int64 {
	return base + 1 + int64(index)
}

// sweepRun is one planned grid cell execution.
type sweepRun struct {
	cfg  Config
	cell string // metric-name prefix for the run's cell
}

// plan expands the grid into the flat run list, assigning seeds by index.
// opt must already have defaults applied.
func (o SweepOptions) plan() []sweepRun {
	specs := make([]sweepRun, 0, o.Total())
	for _, rate := range o.Rates {
		for _, loss := range o.Losses {
			for _, lat := range o.Latencies {
				for _, buf := range o.Buffers {
					for _, cong := range []int{0, o.CongFlows} {
						for run := 0; run < o.RunsPerConfig; run++ {
							cfg := Config{
								Access: AccessParams{
									RateMbps: rate,
									Loss:     loss,
									Latency:  lat,
									Jitter:   2 * time.Millisecond,
									Buffer:   buf,
								},
								CongFlows:  cong,
								TransCross: true,
								Duration:   o.Duration,
								Seed:       sweepSeed(o.Seed, len(specs)),
								CC:         o.CC,
								Faults:     o.Faults,
							}
							if cong > 0 {
								cfg.WarmUp = 4 * time.Second
							}
							specs = append(specs, sweepRun{cfg: cfg, cell: cellName(rate, loss, lat, buf, cong)})
						}
					}
				}
			}
		}
	}
	return specs
}

// identity renders the sweep plan's deterministic description for the
// checkpoint manifest: everything that shapes the run list, nothing that
// doesn't round-trip (function fields like CC and Faults cannot be
// described — pipelines that vary them must vary the checkpoint stage
// name instead, as SweepFaults does per regime).
func (o SweepOptions) identity() string {
	// Whether metrics are collected changes the persisted record bytes,
	// so it is part of the identity: resuming a -metrics sweep without
	// -metrics must be refused, not silently mixed. LiveMetrics feeds off
	// the same per-run registries, so it participates in the same flag —
	// a live-telemetry sweep records metrics and stays resumable both
	// with and without the admin server as long as one of the two is on.
	metrics := o.Metrics != nil || o.LiveMetrics != nil
	// The "testbed.Sweep v1" tag names the manifest format, not a Go
	// function; it stays fixed so existing checkpoints still resume.
	return fmt.Sprintf("testbed.Sweep v1 seed=%d rates=%v losses=%v lats=%v bufs=%v runs=%d cong=%d dur=%s metrics=%t",
		o.Seed, o.Rates, o.Losses, o.Latencies, o.Buffers, o.RunsPerConfig, o.CongFlows, o.Duration, metrics)
}

// sweepRecord is the persisted form of one run: the result (or its error,
// reduced to a string) plus the run's metric registry as a snapshot. It
// must round-trip losslessly through JSON — that is the checkpoint codec
// contract.
type sweepRecord struct {
	Res     *Result      `json:"res,omitempty"`
	Err     string       `json:"err,omitempty"`
	Metrics []obs.Metric `json:"metrics,omitempty"`
}

// SweepCheckpointed runs the full grid for both scenarios and returns
// every valid result. Runs whose flows fail the 10-sample validity filter
// are skipped, exactly as the paper discards them. With opt.Checkpoint
// set, runs execute in chunks, every completed chunk is persisted, and a
// resumed sweep replays verified chunks instead of recomputing them; a nil
// Checkpoint (or empty Dir) runs fully in memory. All collected output —
// result order, Progress calls, the Metrics fold, Stream calls — is
// byte-identical with or without a checkpoint, across resumes, and at any
// worker count.
func SweepCheckpointed(opt SweepOptions) ([]*Result, error) {
	opt = opt.withDefaults()
	specs := opt.plan()
	total := len(specs)
	withMetrics := opt.Metrics != nil || opt.LiveMetrics != nil
	var out []*Result
	err := checkpoint.Run(opt.Checkpoint, opt.identity(), total, opt.Workers,
		func(i int) sweepRecord {
			var reg *obs.Registry
			if withMetrics {
				reg = obs.NewRegistry()
			}
			return runSweepCell(specs[i], reg)
		},
		func(i int, rec sweepRecord) {
			if opt.Progress != nil {
				opt.Progress(i+1, total)
			}
			if len(rec.Metrics) > 0 {
				opt.Metrics.Merge(obs.FromSnapshot(rec.Metrics))
			}
			if opt.LiveMetrics != nil {
				opt.LiveMetrics(rec.Metrics)
			}
			if rec.Res == nil {
				return
			}
			if opt.Stream != nil {
				opt.Stream(rec.Res)
				return
			}
			out = append(out, rec.Res)
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// runSweepCell executes one planned run, records its per-cell metrics
// into reg and returns the run as its persisted record (nil reg disables
// metrics; every registry call is nil-safe, so an invalid run without a
// registry is counted nowhere).
func runSweepCell(sp sweepRun, reg *obs.Registry) sweepRecord {
	res, err := Run(sp.cfg)
	reg.Counter(sp.cell + ".runs").Inc()
	if err != nil {
		reg.Counter(sp.cell + ".invalid").Inc()
		return sweepRecord{Err: err.Error(), Metrics: reg.Snapshot()}
	}
	reg.Counter(sp.cell + ".valid").Inc()
	reg.Histogram(sp.cell+".normdiff", obs.LinearBuckets(0.1, 0.1, 10)).
		Observe(res.Features.NormDiff)
	reg.Histogram(sp.cell+".cov", obs.LinearBuckets(0.05, 0.05, 10)).
		Observe(res.Features.CoV)
	reg.Histogram(sp.cell+".slowstart_mbps", obs.LinearBuckets(5, 5, 12)).
		Observe(res.SlowStartBps / 1e6)
	return sweepRecord{Res: res, Metrics: reg.Snapshot()}
}

// Dataset converts sweep results into labeled training examples using the
// paper's threshold rule, filtering out runs whose threshold label
// contradicts the scenario that produced them (the paper discards this
// small inconsistent fraction before training).
func Dataset(results []*Result, threshold float64) []dtree.Example {
	var out []dtree.Example
	for _, r := range results {
		if r.Label(threshold) != r.Scenario {
			continue
		}
		out = append(out, dtree.Example{X: r.Features.Values(), Label: r.Scenario})
	}
	return out
}

// DatasetUnfiltered keeps every result, labeled purely by the threshold
// rule, for studying labeling noise.
func DatasetUnfiltered(results []*Result, threshold float64) []dtree.Example {
	out := make([]dtree.Example, 0, len(results))
	for _, r := range results {
		out = append(out, dtree.Example{X: r.Features.Values(), Label: r.Label(threshold)})
	}
	return out
}
