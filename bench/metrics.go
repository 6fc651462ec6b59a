package main

import (
	"math"
	"sort"
	"time"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units, directions and bounds; TestBenchmarkJSONMatchesCode keeps
// the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: tolerated worsening of the median, as a share
}

// endToEnd are the user-visible metrics every workload reports in an
// untraced run. A "verdict" is one classified flow for the pcap workloads
// and one finished emulator run for the sweep workloads.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"verdicts_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_verdict", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.10},
	{"verdict_latency_p50_ms", "ms", "lower", 0.25},
	{"verdict_latency_p99_ms", "ms", "lower", 0.25},
}

// perLayer are the traced run's metrics, each measured from outside the
// layer by timing calls into its public functions.
var perLayer = []metricDef{
	// Trace-processing half: the workload's pcap bytes replayed in-process.
	{Name: "pcap.records", Unit: "count", Better: "higher"},
	{Name: "pcap.decode_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "pcap.convert_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "stream.observe_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "stream.pump_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "stream.live_record_frac", Unit: "ratio", Better: "lower"},
	{Name: "stream.verdicts", Unit: "count", Better: "higher"},
	{Name: "stream.peak_flows_live", Unit: "count", Better: "lower"},
	{Name: "stream.flush_ms", Unit: "ms", Better: "lower"},
	{Name: "core.classify_us_per_verdict", Unit: "us", Better: "lower"},
	{Name: "ledger.layer_sum_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "process.cpu_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "process.residual_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "process.sys_cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "process.verdicts_per_output_read", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	// Emulator half: testbed runs with an obs.Sink attached.
	{Name: "sim.runs", Unit: "count", Better: "higher"},
	{Name: "sim.events_per_run", Unit: "count", Better: "lower"},
	{Name: "sim.pending_max", Unit: "count", Better: "lower"},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "netem.packets_per_run", Unit: "count", Better: "lower"},
	{Name: "netem.drops_per_run", Unit: "count", Better: "lower"},
	{Name: "tcpsim.test_flow_segments", Unit: "count", Better: "lower"},
	{Name: "flowrtt.analyze_ms_per_run", Unit: "ms", Better: "lower"},
	{Name: "features.from_rtts_us_per_run", Unit: "us", Better: "lower"},
	{Name: "go.gc_cycles_per_run", Unit: "count", Better: "lower"},
	{Name: "go.alloc_mb_per_run", Unit: "MB", Better: "lower"},
	{Name: "trace.sim_overhead_frac", Unit: "ratio", Better: "lower"},
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// durationsMs converts durations to float milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// perS returns n per second of d.
func perS(n int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// runStats accumulates one workload run's jobs for the end-to-end metrics.
type runStats struct {
	rate      []float64 // verdicts per second, per job
	cpuMs     []float64 // CPU ms per verdict, per job
	peakMB    []float64 // per ccsig process, or per emulator run
	p50, p99  []float64 // verdict latency quantiles in ms, per job
	attempted int
	failed    int
}

// addJob records one job: its verdicts, wall and CPU time, and the
// latency of each verdict in ms.
func (s *runStats) addJob(verdicts int, wall, cpu time.Duration, latencyMs []float64) {
	s.rate = append(s.rate, perS(verdicts, wall))
	s.cpuMs = append(s.cpuMs, float64(cpu)/1e6/float64(verdicts))
	s.p50 = append(s.p50, quantile(latencyMs, 0.50))
	s.p99 = append(s.p99, quantile(latencyMs, 0.99))
}

// result reports the end-to-end metrics: medians over jobs (or runs).
func (s *runStats) result(setup float64) *result {
	return &result{
		Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed,
		Metrics: map[string]float64{
			"setup_s":                setup,
			"verdicts_per_s":         median(s.rate),
			"cpu_ms_per_verdict":     median(s.cpuMs),
			"peak_rss_mb":            median(s.peakMB),
			"verdict_latency_p50_ms": median(s.p50),
			"verdict_latency_p99_ms": median(s.p99),
		},
	}
}
