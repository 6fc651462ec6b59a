package testbed

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"tcpsig/internal/checkpoint"
	"tcpsig/internal/obs"
)

// mustSweep runs opt and fails tb if the sweep returns an error.
func mustSweep(tb testing.TB, opt SweepOptions) []*Result {
	tb.Helper()
	results, err := SweepCheckpointed(opt)
	if err != nil {
		tb.Fatal(err)
	}
	return results
}

// parallelGrid is a small but non-trivial grid: two buffers, both
// scenarios, two runs each = 8 runs, short enough for CI but with enough
// cells that out-of-order completion would scramble a naive collector.
func parallelGrid(workers int, metrics *obs.Registry, progress func(done, total int)) SweepOptions {
	return SweepOptions{
		Rates:         []float64{10},
		Losses:        []float64{0},
		Latencies:     []time.Duration{20 * time.Millisecond},
		Buffers:       []time.Duration{30 * time.Millisecond, 100 * time.Millisecond},
		RunsPerConfig: 2,
		Duration:      2 * time.Second,
		Seed:          42,
		Workers:       workers,
		Metrics:       metrics,
		Progress:      progress,
	}
}

// sweepFingerprint serializes everything a sweep produces — result order,
// seeds, features, the derived dataset, progress callback order, and the
// metrics registry snapshot — into one byte string. Go's %v prints the
// shortest uniquely-identifying decimal for a float64, so equal fingerprints
// mean bit-identical floats. A non-nil ckpt persists the sweep, sending
// every result and metric snapshot through the checkpoint chunk codec.
func sweepFingerprint(t *testing.T, workers int, ckpt *checkpoint.Spec) []byte {
	t.Helper()
	var b bytes.Buffer
	reg := obs.NewRegistry()
	opt := parallelGrid(workers, reg, func(done, total int) {
		fmt.Fprintf(&b, "progress %d/%d\n", done, total)
	})
	opt.Checkpoint = ckpt
	results := mustSweep(t, opt)
	if len(results) == 0 {
		t.Fatal("sweep produced no valid runs")
	}
	for _, r := range results {
		fmt.Fprintf(&b, "run seed=%d scen=%d buf=%s features=%v ssbps=%v flowbps=%v\n",
			r.Config.Seed, r.Scenario, r.Config.Access.Buffer,
			r.Features.Values(), r.SlowStartBps, r.FlowBps)
	}
	for _, ex := range Dataset(results, 0.8) {
		fmt.Fprintf(&b, "example label=%d x=%v\n", ex.Label, ex.X)
	}
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestParallelMatchesSerial is the tentpole acceptance test: the sweep must
// produce byte-identical output (results, dataset, metrics snapshot,
// progress sequence) at every worker count, and with a checkpoint
// directory exactly as in memory.
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("emulation is expensive")
	}
	serial := sweepFingerprint(t, 1, nil)
	for _, tc := range []struct {
		workers int
		ckpt    bool
	}{{2, false}, {8, false}, {1, true}, {8, true}} {
		var ckpt *checkpoint.Spec
		if tc.ckpt {
			ckpt = &checkpoint.Spec{Dir: t.TempDir(), ChunkSize: 3}
		}
		if got := sweepFingerprint(t, tc.workers, ckpt); !bytes.Equal(got, serial) {
			t.Errorf("Workers=%d checkpoint=%t output differs from serial in memory:\n--- serial ---\n%s\n--- got ---\n%s",
				tc.workers, tc.ckpt, serial, got)
		}
	}
}

// TestSweepFaultsParallelMatchesSerial checks the fault sweep end to end:
// training on the clean grid, rerunning under fault regimes, and the
// rendered report must not change when the underlying runs are parallel.
func TestSweepFaultsParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("emulation is expensive")
	}
	regimes := []FaultRegime{}
	for _, r := range DefaultFaultRegimes() {
		if r.Name == "clean" || r.Name == "flap" || r.Name == "ge-loss" {
			regimes = append(regimes, r)
		}
	}
	report := func(workers int) string {
		opt := FaultSweepOptions{Sweep: parallelGrid(workers, nil, nil), Regimes: regimes}
		rep, err := SweepFaults(opt)
		if err != nil {
			t.Fatal(err)
		}
		return rep.String() + "\n" + rep.Tree.String()
	}
	serial := report(1)
	if got := report(8); got != serial {
		t.Errorf("parallel fault sweep differs from serial:\n--- serial ---\n%s\n--- workers=8 ---\n%s", serial, got)
	}
}

// invalidGrid is a sweep whose every run fails the validity filter: 100%
// access loss means the test flow never completes a handshake.
func invalidGrid() SweepOptions {
	return SweepOptions{
		Rates:         []float64{10},
		Losses:        []float64{1},
		Latencies:     []time.Duration{20 * time.Millisecond},
		Buffers:       []time.Duration{30 * time.Millisecond},
		RunsPerConfig: 1,
		CongFlows:     1,
		Duration:      time.Second,
		Seed:          7,
	}
}

// TestSweepNilMetricsInvalidRun is the satellite-1 regression: a sweep with
// nil Metrics whose runs come back invalid must not panic on the invalid-run
// accounting path (the old code updated the sweep-level invalid counter
// without a nil guard).
func TestSweepNilMetricsInvalidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("emulation is expensive")
	}
	opt := invalidGrid()
	opt.Metrics = nil
	if results := mustSweep(t, opt); len(results) != 0 {
		t.Fatalf("expected every run invalid, got %d valid results", len(results))
	}
}

// TestSweepZeroValueMetricsRegistry pins the crash this PR fixes: a caller
// handing the sweep a zero-value &obs.Registry{} (instead of obs.NewRegistry())
// used to die on a nil-map write inside the invalid-run counter update.
// On pre-PR code this test panics.
func TestSweepZeroValueMetricsRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("emulation is expensive")
	}
	opt := invalidGrid()
	reg := &obs.Registry{}
	opt.Metrics = reg
	if results := mustSweep(t, opt); len(results) != 0 {
		t.Fatalf("expected every run invalid, got %d valid results", len(results))
	}
	cell := "sweep.cell{rate=10M,loss=1,lat=20ms,buf=30ms,scen=self}"
	if got := reg.Counter(cell + ".invalid").Value(); got != 1 {
		t.Errorf("%s.invalid = %d, want 1", cell, got)
	}
}

// BenchmarkSweep measures the quick grid serially and at GOMAXPROCS so the
// speedup is `benchstat` visible; on a multi-core box the parallel case
// must approach linear scaling because runs share no state.
func BenchmarkSweep(b *testing.B) {
	for _, bench := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", -1}} {
		b.Run(bench.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := parallelGrid(bench.workers, nil, nil)
				if res := mustSweep(b, opt); len(res) == 0 {
					b.Fatal("sweep produced no valid runs")
				}
			}
		})
	}
}
