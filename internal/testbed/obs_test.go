package testbed

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"tcpsig/internal/obs"
)

// obsCfg is a short run that still exercises drops and recovery (small
// buffer on a slow link) so the trace covers the interesting event kinds.
func obsCfg(seed int64, sink *obs.Sink) Config {
	return Config{
		Access: AccessParams{
			RateMbps: 10,
			Latency:  20 * time.Millisecond,
			Jitter:   2 * time.Millisecond,
			Buffer:   30 * time.Millisecond,
		},
		TransCross: true,
		Duration:   2 * time.Second,
		Seed:       seed,
		Obs:        sink,
	}
}

func obsOutputs(t *testing.T, seed int64) (trace, metrics []byte) {
	t.Helper()
	sink := &obs.Sink{Trace: obs.NewTracer(0), Metrics: obs.NewRegistry()}
	if _, err := Run(obsCfg(seed, sink)); err != nil {
		t.Fatal(err)
	}
	var tb, mb bytes.Buffer
	if err := sink.Trace.WriteChromeTrace(&tb); err != nil {
		t.Fatal(err)
	}
	if err := sink.Metrics.WriteText(&mb); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), mb.Bytes()
}

// TestObsByteIdentical is the determinism acceptance test: two runs with
// the same seed must emit byte-identical Chrome-trace JSON and metrics
// text, and a different seed must not (guarding against a trivially
// constant exporter passing the first check).
func TestObsByteIdentical(t *testing.T) {
	tr1, m1 := obsOutputs(t, 42)
	tr2, m2 := obsOutputs(t, 42)
	if !bytes.Equal(tr1, tr2) {
		t.Error("same-seed runs produced different Chrome-trace JSON")
	}
	if !bytes.Equal(m1, m2) {
		t.Error("same-seed runs produced different metrics text")
	}
	if len(tr1) < 1000 {
		t.Errorf("trace suspiciously small (%d bytes): instrumentation missing?", len(tr1))
	}
	tr3, m3 := obsOutputs(t, 43)
	if bytes.Equal(tr1, tr3) {
		t.Error("different seeds produced identical traces")
	}
	if bytes.Equal(m1, m3) {
		t.Error("different seeds produced identical metrics")
	}
}

// TestObsSinkDoesNotPerturbRun checks the other half of the contract: an
// attached sink must not change the simulation. Features, throughput and
// scenario must match a run with observability disabled.
func TestObsSinkDoesNotPerturbRun(t *testing.T) {
	plain, err := Run(obsCfg(7, nil))
	if err != nil {
		t.Fatal(err)
	}
	sink := &obs.Sink{Trace: obs.NewTracer(0), Metrics: obs.NewRegistry()}
	observed, err := Run(obsCfg(7, sink))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Features, observed.Features) {
		t.Errorf("features changed with sink attached:\n  plain    %+v\n  observed %+v",
			plain.Features, observed.Features)
	}
	if plain.SlowStartBps != observed.SlowStartBps || plain.FlowBps != observed.FlowBps {
		t.Errorf("throughput changed with sink attached: %v/%v vs %v/%v",
			plain.SlowStartBps, plain.FlowBps, observed.SlowStartBps, observed.FlowBps)
	}
	if plain.Scenario != observed.Scenario {
		t.Error("scenario changed with sink attached")
	}
	if sink.Trace.Len() == 0 {
		t.Error("sink attached but no events recorded")
	}
	if len(sink.Metrics.Snapshot()) == 0 {
		t.Error("sink attached but no metrics collected")
	}
}

// TestSweepMetrics checks that per-cell sweep counters and histograms are
// populated with stable cell names.
func TestSweepMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	opt := SweepOptions{
		RunsPerConfig: 1,
		Seed:          1,
		Rates:         []float64{10},
		Losses:        []float64{0},
		Latencies:     []time.Duration{20 * time.Millisecond},
		Buffers:       []time.Duration{30 * time.Millisecond},
		Duration:      2 * time.Second,
		Metrics:       reg,
	}
	results := mustSweep(t, opt)
	if len(results) == 0 {
		t.Fatal("sweep produced no valid runs")
	}
	// One self-induced and one external cell, one run each.
	for _, cell := range []string{
		"sweep.cell{rate=10M,loss=0,lat=20ms,buf=30ms,scen=self}",
		"sweep.cell{rate=10M,loss=0,lat=20ms,buf=30ms,scen=external}",
	} {
		if got := reg.Counter(cell + ".runs").Value(); got != 1 {
			t.Errorf("%s.runs = %d, want 1", cell, got)
		}
		valid := reg.Counter(cell + ".valid").Value()
		invalid := reg.Counter(cell + ".invalid").Value()
		if valid+invalid != 1 {
			t.Errorf("%s: valid+invalid = %d, want 1", cell, valid+invalid)
		}
		if valid == 1 && reg.Histogram(cell+".normdiff", nil).Count() != 1 {
			t.Errorf("%s.normdiff histogram not observed", cell)
		}
	}
}
