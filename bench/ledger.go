package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"tcpsig"
	"tcpsig/internal/core"
	"tcpsig/internal/features"
	"tcpsig/internal/flowrtt"
	"tcpsig/internal/netem"
	"tcpsig/internal/obs"
	"tcpsig/internal/pcap"
	"tcpsig/internal/stream"
	"tcpsig/internal/testbed"
)

// chunkRecords is the traced replay's unit of work: every layer runs as
// its own timed pass over one chunk, so no timer sits inside a per-record
// call.
const chunkRecords = 64 << 10

// span is one timed pass of one layer. Spans of one chunk (or one
// emulator run) share Rep and Chunk; Parent is the ID of the enclosing
// span, -1 for none.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Layer    string `json:"layer"`
	Rep      int    `json:"rep"`
	Chunk    int    `json:"chunk"`
	Start    int64  `json:"start_ns"` // since the workload's trace began
	End      int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
}

func newTracer(e *env) *tracer {
	return &tracer{workload: e.workload, t0: time.Now()}
}

func (t *tracer) add(layer string, rep, chunk, parent int, start, end time.Time) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Workload: t.workload, Layer: layer, Rep: rep, Chunk: chunk,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	return id
}

// tableConfig is the flow table each program builds: serve's streaming,
// recycling table, or classify's batch (FullInfo) table.
func tableConfig(clf *core.Classifier, batch bool, emit func(stream.FlowResult)) stream.Config {
	if batch {
		return stream.Config{Classifier: clf, FullInfo: true, Emit: emit}
	}
	return stream.Config{Classifier: clf, MaxFlows: 1_000_000, Shards: 8, Recycle: true, Emit: emit}
}

// dataKey is the flow a record is routed to by the table, if any.
func dataKey(r *netem.CaptureRecord) (netem.FlowKey, bool) {
	switch {
	case r.Dir == netem.DirOut && r.Pkt.IsData():
		return r.Pkt.Flow, true
	case r.Dir == netem.DirIn && r.Pkt.Seg.Flags&netem.FlagACK != 0:
		return r.Pkt.Flow.Reverse(), true
	}
	return netem.FlowKey{}, false
}

// ledgerReps is how many times the traced replay runs. Each layer reports
// its median over them, so one pass slowed by the machine does not set it.
const ledgerReps = 3

// replayCost is one replay's busy time per layer. observe and flush leave
// out the timed re-runs of ClassifyInfo, which classify holds; pump is the
// whole Pump.Feed pass; fused is the untraced one-loop pass.
type replayCost struct {
	decode, convert, observe, pump, flush, classify, fused time.Duration
}

// replayCounts are what a replay sees, the same in every rep.
type replayCounts struct {
	records, verdicts, live, peakLive int
}

// pcapLedger replays the pcap at path in-process, one timed pass per
// layer per chunk, and returns the trace-processing metrics. child is an
// untraced run of the workload's program on the same bytes; the gap
// between its CPU per record and the layer sum is the residual.
func pcapLedger(tr *tracer, model, path string, records int, batch bool, child procRun) (map[string]float64, error) {
	clf, err := tcpsig.LoadFile(model)
	if err != nil {
		return nil, err
	}
	var costs []replayCost
	var c replayCounts
	for rep := 0; rep < ledgerReps; rep++ {
		counts := &c
		if rep > 0 {
			counts = nil
		}
		cost, err := replay(tr, rep, path, clf.Core(), batch, counts)
		if err != nil {
			return nil, err
		}
		costs = append(costs, cost)
	}
	if c.records != records {
		return nil, fmt.Errorf("replay decoded %d records, the input has %d", c.records, records)
	}
	med := func(get func(replayCost) time.Duration) time.Duration {
		xs := make([]float64, len(costs))
		for i, c := range costs {
			xs[i] = float64(get(c))
		}
		return time.Duration(median(xs))
	}
	decode := med(func(c replayCost) time.Duration { return c.decode })
	convert := med(func(c replayCost) time.Duration { return c.convert })
	observe := med(func(c replayCost) time.Duration { return c.observe })
	pump := med(func(c replayCost) time.Duration { return c.pump - c.observe })
	flush := med(func(c replayCost) time.Duration { return c.flush })
	classify := med(func(c replayCost) time.Duration { return c.classify })
	overhead := median(func() []float64 {
		xs := make([]float64, len(costs))
		for i, c := range costs {
			xs[i] = float64(c.decode+c.convert+c.observe-c.fused) / float64(c.fused)
		}
		return xs
	}())

	n := c.records
	perRec := func(d time.Duration) float64 { return float64(d) / float64(n) }
	m := map[string]float64{
		"pcap.records":                 float64(n),
		"pcap.decode_ns_per_record":    perRec(decode),
		"pcap.convert_ns_per_record":   perRec(convert),
		"stream.observe_ns_per_record": perRec(observe),
		"stream.pump_ns_per_record":    perRec(pump),
		"stream.live_record_frac":      float64(c.live) / float64(n),
		"stream.verdicts":              float64(c.verdicts),
		"stream.peak_flows_live":       float64(c.peakLive),
		"stream.flush_ms":              float64(flush) / 1e6,
		"core.classify_us_per_verdict": float64(classify) / 1e3 / float64(max(c.verdicts, 1)),
		"trace.overhead_frac":          overhead,
	}
	layers := []struct {
		name string
		d    time.Duration
	}{
		{"pcap.decode", decode}, {"pcap.convert", convert}, {"stream.observe", observe},
		{"stream.pump", pump}, {"stream.flush", flush},
	}
	program := "ccsig serve"
	if batch {
		layers = append(layers[:3], layers[4]) // classify has no pump
		program = "ccsig classify -json"
	}
	logf("ledger (%s, %d records, %d verdicts, median of %d replays):", program, n, c.verdicts, ledgerReps)
	var sum time.Duration
	for _, l := range layers {
		sum += l.d
		logf("  %-22s %9.1f ns/record x %d = %8.1f ms", l.name, perRec(l.d), n, float64(l.d)/1e6)
	}
	childNs := perRec(child.CPU())
	m["ledger.layer_sum_ns_per_record"] = perRec(sum)
	m["process.cpu_ns_per_record"] = childNs
	m["process.residual_ns_per_record"] = childNs - perRec(sum)
	m["process.sys_cpu_frac"] = float64(child.Sys) / float64(max(child.CPU(), 1))
	m["process.verdicts_per_output_read"] = float64(len(child.LineAt)) / float64(max(child.Reads, 1))
	logf("  %-22s %9.1f ns/record (classify %.1f us/verdict inside observe)", "layer sum", perRec(sum), m["core.classify_us_per_verdict"])
	logf("  %-22s %9.1f ns/record (%.0f%% system)", "child CPU", childNs, 100*m["process.sys_cpu_frac"])
	logf("  %-22s %9.1f ns/record", "residual", m["process.residual_ns_per_record"])
	logf("  tracing overhead %+.1f%% (traced decode+convert+observe against one fused untraced loop)", 100*overhead)
	return m, nil
}

// replay runs the fused untraced pass and then the traced one over the
// pcap at path. With counts non-nil it also counts, outside the timed
// passes, the records that reached a flow still without a verdict and the
// most flows live at once.
func replay(tr *tracer, rep int, path string, clf *core.Classifier, batch bool, counts *replayCounts) (replayCost, error) {
	var cost replayCost
	var err error
	if cost.fused, err = fusedPass(path, clf, batch); err != nil {
		return cost, err
	}
	f, err := os.Open(path)
	if err != nil {
		return cost, err
	}
	defer f.Close()
	rd := pcap.NewReader(f)

	var (
		cur       int // global index of the record being observed
		verdicts  int
		verdictAt = map[netem.FlowKey]int{}
	)
	table := stream.NewTable(tableConfig(clf, batch, func(res stream.FlowResult) {
		verdicts++
		verdictAt[res.Flow] = cur
		if res.Verdict.Flow != nil {
			t := time.Now()
			_, _ = clf.ClassifyInfo(res.Verdict.Flow) // a re-run, timed; the verdict is already out
			cost.classify += time.Since(t)
		}
	}))
	pumped := stream.NewTable(tableConfig(clf, batch, func(stream.FlowResult) {}))

	recs := make([]pcap.Record, 0, chunkRecords)
	crecs := make([]netem.CaptureRecord, chunkRecords)
	created := map[netem.FlowKey]bool{}
	liveNow, n := 0, 0
	for chunk := 0; ; chunk++ {
		t0 := time.Now()
		recs = recs[:0]
		for len(recs) < chunkRecords {
			r, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return cost, err
			}
			recs = append(recs, r)
		}
		if len(recs) == 0 {
			break
		}
		t1 := time.Now()
		for i := range recs {
			crecs[i] = pcap.RecordToCapture(recs[i], serverIP)
		}
		t2 := time.Now()
		before := cost.classify
		for i := range recs {
			cur = n + i
			table.Observe(&crecs[i])
		}
		t3 := time.Now()
		p := stream.NewPump(pumped, 0)
		for i := range recs {
			p.Feed(crecs[i])
		}
		p.Close()
		t4 := time.Now()

		id := tr.add("replay", rep, chunk, -1, t0, t4)
		tr.add("pcap.decode", rep, chunk, id, t0, t1)
		tr.add("pcap.convert", rep, chunk, id, t1, t2)
		tr.add("stream.observe", rep, chunk, id, t2, t3)
		tr.add("stream.pump", rep, chunk, id, t3, t4)
		cost.decode += t1.Sub(t0)
		cost.convert += t2.Sub(t1)
		cost.observe += t3.Sub(t2) - (cost.classify - before)
		cost.pump += t4.Sub(t3)

		if counts != nil {
			for i := range recs {
				k, ok := dataKey(&crecs[i])
				if !ok {
					continue
				}
				if crecs[i].Dir == netem.DirOut && !created[k] {
					created[k] = true
					liveNow++
					counts.peakLive = max(counts.peakLive, liveNow)
				}
				at, done := verdictAt[k]
				if created[k] && (!done || at >= n+i) {
					counts.live++
				}
				if done && at == n+i {
					liveNow--
				}
			}
		}
		n += len(recs)
	}
	tf := time.Now()
	before := cost.classify
	table.Flush()
	cost.flush = time.Since(tf) - (cost.classify - before)
	tr.add("stream.flush", rep, 0, -1, tf, tf.Add(cost.flush))
	pumped.Flush()
	if counts != nil {
		counts.records, counts.verdicts = n, verdicts
	}
	return cost, nil
}

// fusedPass is the untraced reference for the replay: decode, convert and
// observe in one loop with no chunking and no spans.
func fusedPass(path string, clf *core.Classifier, batch bool) (time.Duration, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	table := stream.NewTable(tableConfig(clf, batch, func(stream.FlowResult) {}))
	rd := pcap.NewReader(f)
	start := time.Now()
	for {
		r, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		crec := pcap.RecordToCapture(r, serverIP)
		table.Observe(&crec)
	}
	d := time.Since(start)
	table.Flush()
	return d, nil
}

// emuLedger runs each cell untraced — timing the run, its allocation and
// GC cycles, and re-timing the flow analysis on its capture — and right
// after with an obs.Sink, whose metrics give the run's event, packet and
// drop counts. keep, when non-nil, sees each untraced run.
func emuLedger(tr *tracer, cells []testbed.Config, m map[string]float64, keep func(int, *netem.Capture, *testbed.Result, error)) error {
	var untraced, traced, observedWall, analyze, feats time.Duration
	var alloc uint64
	var gcs uint32
	var events, packets, drops, segs, pendingMax float64
	observed := 0
	for i, cfg := range cells {
		var capt *netem.Capture
		cfg.Capture = func(x *netem.Capture) { capt = x }
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		res, err := testbed.Run(cfg)
		end := time.Now()
		runtime.ReadMemStats(&ms1)
		wall := end.Sub(start)
		untraced += wall
		alloc += ms1.TotalAlloc - ms0.TotalAlloc
		gcs += ms1.NumGC - ms0.NumGC
		id := tr.add("testbed.run", 0, i, -1, start, end)
		if capt == nil {
			return fmt.Errorf("cell %d: no capture", i)
		}
		if flows := flowrtt.Flows(capt.Records); len(flows) > 0 {
			t1 := time.Now()
			info, _ := flowrtt.AnalyzeValid(capt.Records, flows[0])
			t2 := time.Now()
			if info != nil {
				_, _ = features.FromRTTs(info.SlowStartRTTs(), 0) // timed only
			}
			t3 := time.Now()
			tr.add("flowrtt.analyze", 0, i, id, t1, t2)
			tr.add("features.from_rtts", 0, i, id, t2, t3)
			analyze += t2.Sub(t1)
			feats += t3.Sub(t2)
		}
		if keep != nil {
			keep(i, capt, res, err)
		}

		cfg.Capture = nil
		reg := obs.NewRegistry()
		cfg.Obs = &obs.Sink{Metrics: reg}
		start = time.Now()
		_, _ = testbed.Run(cfg) // the same run again; only its metrics are new
		end = time.Now()
		traced += end.Sub(start)
		tr.add("testbed.run_traced", 0, i, -1, start, end)
		snap := reg.Snapshot()
		if len(snap) == 0 {
			continue // a run the validity filter discards collects no metrics
		}
		observed++
		observedWall += wall
		for _, mt := range snap {
			switch {
			case mt.Name == "sim.events.executed":
				events += mt.Value
			case mt.Name == "sim.events.pending_max":
				pendingMax = max(pendingMax, mt.Value)
			case mt.Name == "tcpsim.test_flow.segments_sent":
				segs += mt.Value
			case strings.HasPrefix(mt.Name, "netem.link.") && strings.HasSuffix(mt.Name, ".sent"):
				packets += mt.Value
			case strings.HasPrefix(mt.Name, "netem.link.") && strings.Contains(mt.Name, ".drops."):
				drops += mt.Value
			}
		}
	}
	if observed == 0 {
		return fmt.Errorf("no emulator run collected metrics")
	}
	n := float64(len(cells))
	o := float64(observed)
	m["sim.runs"] = n
	m["sim.events_per_run"] = events / o
	m["sim.pending_max"] = pendingMax
	m["sim.ns_per_event"] = float64(observedWall) / events
	m["netem.packets_per_run"] = packets / o
	m["netem.drops_per_run"] = drops / o
	m["tcpsim.test_flow_segments"] = segs / o
	m["flowrtt.analyze_ms_per_run"] = float64(analyze) / 1e6 / n
	m["features.from_rtts_us_per_run"] = float64(feats) / 1e3 / n
	m["go.gc_cycles_per_run"] = float64(gcs) / n
	m["go.alloc_mb_per_run"] = float64(alloc) / (1 << 20) / n
	m["trace.sim_overhead_frac"] = float64(traced-untraced) / float64(untraced)
	logf("emulator ledger (%d runs): %.1f ms/run, %.0f events/run at %.1f ns/event, analyze %.2f ms/run, %.1f MB allocated/run, obs sink overhead %+.1f%%",
		len(cells), float64(untraced)/1e6/n, m["sim.events_per_run"], m["sim.ns_per_event"],
		m["flowrtt.analyze_ms_per_run"], m["go.alloc_mb_per_run"], 100*m["trace.sim_overhead_frac"])
	return nil
}
