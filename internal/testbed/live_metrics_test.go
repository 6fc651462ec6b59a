package testbed

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"tcpsig/internal/checkpoint"
	"tcpsig/internal/obs"
)

// liveGrid is the smallest grid exercising both scenarios: 2 runs.
func liveGrid(workers int) SweepOptions {
	return SweepOptions{
		Rates:         []float64{10},
		Losses:        []float64{0},
		Latencies:     []time.Duration{20 * time.Millisecond},
		Buffers:       []time.Duration{30 * time.Millisecond},
		RunsPerConfig: 1,
		Duration:      2 * time.Second,
		Seed:          42,
		Workers:       workers,
	}
}

func resultsFingerprint(results []*Result) []byte {
	var b bytes.Buffer
	for _, r := range results {
		fmt.Fprintf(&b, "run seed=%d scen=%d features=%v ssbps=%v flowbps=%v\n",
			r.Config.Seed, r.Scenario, r.Features.Values(), r.SlowStartBps, r.FlowBps)
	}
	return b.Bytes()
}

// TestSweepLiveMetricsByteIdentity: attaching the wall-clock LiveMetrics
// tap must not change anything the sim-time plane produces — results and
// the Metrics registry are byte-identical with the tap on and off, at
// serial and parallel worker counts. This is the two-plane contract at
// the sweep boundary.
func TestSweepLiveMetricsByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("emulation is expensive")
	}
	for _, workers := range []int{1, 4} {
		run := func(tap func([]obs.Metric)) ([]byte, []byte) {
			opt := liveGrid(workers)
			opt.Metrics = obs.NewRegistry()
			opt.LiveMetrics = tap
			results := mustSweep(t, opt)
			if len(results) == 0 {
				t.Fatal("sweep produced no valid runs")
			}
			var reg bytes.Buffer
			if err := opt.Metrics.WriteText(&reg); err != nil {
				t.Fatal(err)
			}
			return resultsFingerprint(results), reg.Bytes()
		}

		var taps int
		live := obs.NewRegistry()
		tapResults, tapReg := run(func(ms []obs.Metric) {
			taps++
			live.Merge(obs.FromSnapshot(ms))
		})
		offResults, offReg := run(nil)

		if !bytes.Equal(tapResults, offResults) {
			t.Errorf("workers=%d: results differ with LiveMetrics attached:\n%s\nvs\n%s",
				workers, tapResults, offResults)
		}
		if !bytes.Equal(tapReg, offReg) {
			t.Errorf("workers=%d: Metrics registry differs with LiveMetrics attached:\n%s\nvs\n%s",
				workers, tapReg, offReg)
		}
		if taps != 2 {
			t.Errorf("workers=%d: LiveMetrics called %d times, want once per run (2)", workers, taps)
		}
		// Folding the tapped snapshots in callback order reproduces the
		// sweep's own aggregate: the tap sees the same data, not a copy
		// with different semantics.
		var liveText bytes.Buffer
		if err := live.WriteText(&liveText); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(liveText.Bytes(), tapReg) {
			t.Errorf("workers=%d: folded live snapshots differ from sweep Metrics:\n%s\nvs\n%s",
				workers, liveText.Bytes(), tapReg)
		}
	}
}

// TestSweepLiveMetricsWithoutRegistry: LiveMetrics alone (nil Metrics)
// still gets per-run registries — the tap is what forces allocation.
func TestSweepLiveMetricsWithoutRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("emulation is expensive")
	}
	opt := liveGrid(1)
	var snaps int
	opt.LiveMetrics = func(ms []obs.Metric) {
		if len(ms) == 0 {
			t.Error("LiveMetrics received an empty snapshot")
		}
		snaps++
	}
	if results := mustSweep(t, opt); len(results) == 0 {
		t.Fatal("sweep produced no valid runs")
	}
	if snaps != 2 {
		t.Errorf("LiveMetrics called %d times, want 2", snaps)
	}
}

// TestSweepCheckpointedLiveMetricsResume: a checkpointed sweep with the
// live tap persists metrics in its records (the identity flag covers
// either tap), so a resume replays the same snapshots to the tap — and a
// resume may swap Metrics for LiveMetrics freely since both imply
// metrics-bearing records.
func TestSweepCheckpointedLiveMetricsResume(t *testing.T) {
	if testing.Short() {
		t.Skip("emulation is expensive")
	}
	dir := t.TempDir()

	var first [][]obs.Metric
	opt := liveGrid(1)
	opt.Checkpoint = &checkpoint.Spec{Dir: dir, ChunkSize: 1}
	opt.LiveMetrics = func(ms []obs.Metric) { first = append(first, ms) }
	res1, err := SweepCheckpointed(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 2 {
		t.Fatalf("fresh run tapped %d snapshots, want 2", len(first))
	}

	var second [][]obs.Metric
	opt2 := liveGrid(1)
	opt2.Checkpoint = &checkpoint.Spec{Dir: dir, ChunkSize: 1, Resume: true}
	opt2.Metrics = obs.NewRegistry()                                         // swap: aggregate instead of tap...
	opt2.LiveMetrics = func(ms []obs.Metric) { second = append(second, ms) } // ...and tap
	res2, err := SweepCheckpointed(opt2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resultsFingerprint(res1), resultsFingerprint(res2)) {
		t.Error("resumed results differ from fresh run")
	}
	if len(second) != len(first) {
		t.Fatalf("resume tapped %d snapshots, want %d", len(second), len(first))
	}
	for i := range first {
		a, b := obs.NewRegistry(), obs.NewRegistry()
		a.Merge(obs.FromSnapshot(first[i]))
		b.Merge(obs.FromSnapshot(second[i]))
		var at, bt bytes.Buffer
		if err := a.WriteText(&at); err != nil {
			t.Fatal(err)
		}
		if err := b.WriteText(&bt); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(at.Bytes(), bt.Bytes()) {
			t.Errorf("replayed snapshot %d differs:\n%s\nvs\n%s", i, at.String(), bt.String())
		}
	}
}
