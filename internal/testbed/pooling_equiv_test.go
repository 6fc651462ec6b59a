package testbed

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"tcpsig/internal/flowrtt"
	"tcpsig/internal/netem"
)

// equivSweep is a small but real sweep: two rates × both scenarios ×
// two repetitions, short tests — large enough to cycle packets and
// trackers through the free lists thousands of times.
func equivSweep(t *testing.T, workers int) []*Result {
	return mustSweep(t, SweepOptions{
		Rates:         []float64{10, 20},
		Losses:        []float64{0},
		Latencies:     []time.Duration{20 * time.Millisecond},
		Buffers:       []time.Duration{60 * time.Millisecond},
		RunsPerConfig: 2,
		CongFlows:     8,
		Duration:      2 * time.Second,
		Seed:          42,
		Workers:       workers,
	})
}

// sweepCSV renders results with the exact format string `testbed -csv`
// streams, so equal strings here mean byte-identical CSV files there.
func sweepCSV(results []*Result, threshold float64) string {
	var b strings.Builder
	b.WriteString("scenario,rate_mbps,loss,latency_ms,buffer_ms,normdiff,cov,slowstart_mbps,flow_mbps,label\n")
	for _, r := range results {
		fmt.Fprintf(&b, "%s,%.0f,%.4f,%.0f,%.0f,%.4f,%.4f,%.2f,%.2f,%s\n",
			ClassName(r.Scenario),
			r.Config.Access.RateMbps,
			r.Config.Access.Loss,
			float64(r.Config.Access.Latency)/float64(time.Millisecond),
			float64(r.Config.Access.Buffer)/float64(time.Millisecond),
			r.Features.NormDiff, r.Features.CoV,
			r.SlowStartBps/1e6, r.FlowBps/1e6,
			ClassName(r.Label(threshold)))
	}
	return b.String()
}

func normResult(r *Result) Result {
	c := *r
	if c.Flow != nil {
		f := *c.Flow
		if len(f.Samples) == 0 {
			f.Samples = nil
		}
		if len(f.SlowStart) == 0 {
			f.SlowStart = nil
		}
		if len(f.AckCurve) == 0 {
			f.AckCurve = nil
		}
		c.Flow = &f
	}
	c.Config.Faults = nil // func values never compare equal
	c.Config.CC = nil
	return c
}

func normResults(rs []*Result) []Result {
	out := make([]Result, len(rs))
	for i, r := range rs {
		out[i] = normResult(r)
	}
	return out
}

// TestSweepPoolingEquivalence is the pooled-vs-unpooled proof at the sweep
// level: the same seeds produce deeply equal results — and therefore
// byte-identical CSV output — with packet pooling on and off, serially and
// at 8 workers.
func TestSweepPoolingEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ~16 short emulations")
	}
	var flowInfoProbe flowrtt.FlowInfo
	_ = flowInfoProbe // keep the import honest if Result.Flow changes shape

	pooledJ1 := equivSweep(t, 1)
	pooledJ8 := equivSweep(t, 8)

	prev := netem.SetDefaultPooling(false)
	unpooledJ1 := equivSweep(t, 1)
	unpooledJ8 := equivSweep(t, 8)
	netem.SetDefaultPooling(prev)

	if len(pooledJ1) == 0 {
		t.Fatal("sweep produced no results")
	}
	base := normResults(pooledJ1)
	for name, got := range map[string][]*Result{
		"pooled -j8": pooledJ8, "unpooled -j1": unpooledJ1, "unpooled -j8": unpooledJ8,
	} {
		if !reflect.DeepEqual(base, normResults(got)) {
			t.Errorf("%s diverges from pooled -j1", name)
		}
	}

	wantCSV := sweepCSV(pooledJ1, 0.8)
	for name, got := range map[string][]*Result{
		"pooled -j8": pooledJ8, "unpooled -j1": unpooledJ1, "unpooled -j8": unpooledJ8,
	} {
		if csv := sweepCSV(got, 0.8); csv != wantCSV {
			t.Errorf("%s CSV is not byte-identical to pooled -j1:\n--- want\n%s--- got\n%s", name, wantCSV, csv)
		}
	}
}
