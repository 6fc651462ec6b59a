package stream

import (
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"tcpsig/internal/core"
	"tcpsig/internal/dtree"
	"tcpsig/internal/netem"
	"tcpsig/internal/sim"
)

// trainToy mirrors the core package's test classifier: hand-made feature
// points with the paper's separation (self: high NormDiff/CoV).
func trainToy(t *testing.T) *core.Classifier {
	t.Helper()
	var ex []dtree.Example
	for i := 0; i < 40; i++ {
		d := float64(i) / 100
		ex = append(ex,
			dtree.Example{X: []float64{0.6 + d/4, 0.3 + d/4}, Label: core.SelfInduced},
			dtree.Example{X: []float64{0.1 + d/4, 0.05 + d/8}, Label: core.External},
		)
	}
	c, err := core.Train(ex, core.TrainOptions{MaxDepth: 4, Threshold: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// mkFlow gives flow i a distinct server→client 4-tuple.
func mkFlow(i int) netem.FlowKey {
	return netem.FlowKey{
		SrcAddr: netem.Addr(0x0a000001),
		DstAddr: netem.Addr(0x0a000100 + uint32(i)%1000),
		SrcPort: netem.Port(443),
		DstPort: netem.Port(10000 + i%50000),
	}
}

type flowSpec struct {
	flow    netem.FlowKey
	isn     uint32
	start   sim.Time
	samples int  // slow-start RTT samples before any retransmit
	retx    bool // end slow start with a retransmission
	rising  bool // rising RTT ramp (self-induced-ish) vs flat (external-ish)
}

// flowTrace emits one flow's records: data/ack pairs each yielding one RTT
// sample, then optionally a retransmission followed by one post-slow-start
// acked segment.
func flowTrace(s flowSpec) []netem.CaptureRecord {
	var recs []netem.CaptureRecord
	at := s.start
	seq := s.isn
	data := func(sq uint32, retx bool) {
		recs = append(recs, netem.CaptureRecord{At: at, Dir: netem.DirOut, Pkt: netem.Packet{
			Flow: s.flow, Retransmit: retx,
			Seg:  netem.Segment{Seq: sq, PayloadLen: 1460, Flags: netem.FlagACK},
			Size: 1500,
		}})
	}
	ack := func(ak uint32) {
		recs = append(recs, netem.CaptureRecord{At: at, Dir: netem.DirIn, Pkt: netem.Packet{
			Flow: s.flow.Reverse(),
			Seg:  netem.Segment{Ack: ak, Flags: netem.FlagACK},
			Size: 40,
		}})
	}
	for k := 0; k < s.samples; k++ {
		rtt := 118 * time.Millisecond
		if s.rising {
			rtt = time.Duration(20+9*k) * time.Millisecond
		}
		data(seq, false)
		at += sim.Time(rtt)
		ack(seq + 1460)
		seq += 1460
		at += sim.Time(time.Millisecond)
	}
	if s.retx {
		data(s.isn, true)
		at += sim.Time(time.Millisecond)
		data(seq, false)
		at += sim.Time(30 * time.Millisecond)
		ack(seq + 1460)
	}
	return recs
}

// interleave merges per-flow traces into one capture ordered by time,
// ties broken by flow index — a deterministic stand-in for a real
// multi-flow capture.
func interleave(perFlow [][]netem.CaptureRecord) []netem.CaptureRecord {
	var all []netem.CaptureRecord
	idx := make([]int, len(perFlow))
	for {
		best := -1
		for fi := range perFlow {
			if idx[fi] >= len(perFlow[fi]) {
				continue
			}
			if best < 0 || perFlow[fi][idx[fi]].At < perFlow[best][idx[best]].At {
				best = fi
			}
		}
		if best < 0 {
			return all
		}
		all = append(all, perFlow[best][idx[best]])
		idx[best]++
	}
}

// mixedSpecs is a capture exercising every verdict path: full-confidence
// flows with and without retransmissions, degraded short flows, and a
// single-sample flow that cannot be classified at all.
func mixedSpecs() []flowSpec {
	return []flowSpec{
		{flow: mkFlow(0), isn: 1000, start: 0, samples: 12, retx: true, rising: true},
		{flow: mkFlow(1), isn: 5000, start: sim.Time(3 * time.Millisecond), samples: 12, retx: false, rising: false},
		{flow: mkFlow(2), isn: 1<<32 - 2000, start: sim.Time(5 * time.Millisecond), samples: 14, retx: true, rising: false},
		{flow: mkFlow(3), isn: 99, start: sim.Time(7 * time.Millisecond), samples: 4, retx: true, rising: true},  // degraded: below validity floor
		{flow: mkFlow(4), isn: 7, start: sim.Time(11 * time.Millisecond), samples: 1, retx: true, rising: false}, // unclassifiable
		{flow: mkFlow(5), isn: 40000, start: sim.Time(13 * time.Millisecond), samples: 11, retx: false, rising: true},
	}
}

func collectTable(t *testing.T, cfg Config, records []netem.CaptureRecord) []FlowResult {
	t.Helper()
	var got []FlowResult
	cfg.Emit = func(r FlowResult) { got = append(got, r) }
	tab := NewTable(cfg)
	for i := range records {
		tab.Observe(&records[i])
	}
	tab.Flush()
	return got
}

// errText normalizes errors for comparison: classification errors are
// freshly formatted per call, so pointer equality never holds.
func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// Batch mode (FullInfo) must reproduce ClassifyTrace exactly — verdict,
// complete flow analysis, error, and flow order.
func TestBatchModeMatchesClassifyTrace(t *testing.T) {
	clf := trainToy(t)
	specs := mixedSpecs()
	perFlow := make([][]netem.CaptureRecord, len(specs))
	for i, s := range specs {
		perFlow[i] = flowTrace(s)
	}
	records := interleave(perFlow)

	got := collectTable(t, Config{Classifier: clf, FullInfo: true}, records)
	if len(got) != len(specs) {
		t.Fatalf("got %d results, want %d", len(got), len(specs))
	}
	for i, s := range specs {
		want, wantErr := clf.ClassifyTrace(records, s.flow)
		r := got[i]
		if r.Flow != s.flow || r.Seq != uint64(i) || r.Early {
			t.Fatalf("result %d: flow/seq/early = %v/%d/%v, want %v/%d/false", i, r.Flow, r.Seq, r.Early, s.flow, i)
		}
		if !reflect.DeepEqual(r.Verdict, want) {
			t.Fatalf("flow %d verdict diverges:\ngot:  %+v\nwant: %+v", i, r.Verdict, want)
		}
		if errText(r.Err) != errText(wantErr) {
			t.Fatalf("flow %d error diverges: got %v, want %v", i, r.Err, wantErr)
		}
	}
}

// Streaming mode must agree with batch on everything a verdict consumer
// can see: class, confidence, reason, features, error, and the slow-start
// fields of the flow analysis. Flows with a retransmission emit early.
func TestEarlyEmissionMatchesBatch(t *testing.T) {
	clf := trainToy(t)
	specs := mixedSpecs()
	perFlow := make([][]netem.CaptureRecord, len(specs))
	for i, s := range specs {
		perFlow[i] = flowTrace(s)
	}
	records := interleave(perFlow)

	got := collectTable(t, Config{Classifier: clf}, records)
	if len(got) != len(specs) {
		t.Fatalf("got %d results, want %d", len(got), len(specs))
	}
	sort.Slice(got, func(i, j int) bool { return got[i].Seq < got[j].Seq })
	for i, s := range specs {
		want, wantErr := clf.ClassifyTrace(records, s.flow)
		r := got[i]
		if r.Early != s.retx {
			t.Fatalf("flow %d: Early = %v, want %v", i, r.Early, s.retx)
		}
		if r.Verdict.Class != want.Class || r.Verdict.Confidence != want.Confidence ||
			r.Verdict.Reason != want.Reason || r.Verdict.Features != want.Features {
			t.Fatalf("flow %d verdict diverges:\ngot:  %+v\nwant: %+v", i, r.Verdict, want)
		}
		if errText(r.Err) != errText(wantErr) {
			t.Fatalf("flow %d error diverges: got %v, want %v", i, r.Err, wantErr)
		}
		gf, wf := r.Verdict.Flow, want.Flow
		if (gf == nil) != (wf == nil) {
			t.Fatalf("flow %d: Flow nil-ness diverges", i)
		}
		if gf != nil {
			if !reflect.DeepEqual(gf.SlowStart, wf.SlowStart) ||
				gf.SlowStartBytesAcked != wf.SlowStartBytesAcked ||
				gf.HasRetransmit != wf.HasRetransmit ||
				gf.FirstRetransmitAt != wf.FirstRetransmitAt ||
				gf.FirstDataAt != wf.FirstDataAt {
				t.Fatalf("flow %d slow-start analysis diverges:\ngot:  %+v\nwant: %+v", i, gf, wf)
			}
		}
	}
}

// Under a table cap far below the flow count, memory stays bounded, the
// eviction counter ticks, and every flow that does get a verdict gets the
// same verdict batch classification would give it.
func TestEvictionUnderCap(t *testing.T) {
	clf := trainToy(t)
	const nFlows, cap = 10_000, 1_000

	perFlow := make(map[netem.FlowKey][]netem.CaptureRecord, nFlows)
	var emitted []FlowResult
	tab := NewTable(Config{
		Classifier: clf,
		MaxFlows:   cap,
		Shards:     8,
		Emit:       func(r FlowResult) { emitted = append(emitted, r) },
	})
	maxResident := int64(0)
	for i := 0; i < nFlows; i++ {
		flow := netem.FlowKey{
			SrcAddr: netem.Addr(0x0a000001),
			DstAddr: netem.Addr(0x0a010000 + uint32(i)),
			SrcPort: 443, DstPort: netem.Port(2000 + i%60000),
		}
		recs := flowTrace(flowSpec{
			flow: flow, isn: uint32(i * 17), start: sim.Time(time.Duration(i) * time.Millisecond),
			samples: 11, retx: i%10 == 0, rising: i%2 == 0,
		})
		perFlow[flow] = recs
		for j := range recs {
			tab.Observe(&recs[j])
		}
		if r := tab.flowsResident.Load(); r > maxResident {
			maxResident = r
		}
	}
	if maxResident > cap {
		t.Fatalf("resident entries peaked at %d, cap %d", maxResident, cap)
	}
	if tab.EvictedFlows() == 0 {
		t.Fatal("no live flows evicted despite 10x over-cap flow count")
	}
	tab.Flush()

	if len(emitted)+int(tab.EvictedFlows()) != nFlows {
		t.Fatalf("verdicts (%d) + evictions (%d) != flows (%d)", len(emitted), tab.EvictedFlows(), nFlows)
	}
	// Every emitted verdict — early or flushed — matches batch
	// classification of that flow's own records.
	for _, r := range emitted {
		recs, ok := perFlow[r.Flow]
		if !ok {
			t.Fatalf("verdict for unknown flow %v", r.Flow)
		}
		want, wantErr := clf.ClassifyTrace(recs, r.Flow)
		if r.Verdict.Class != want.Class || r.Verdict.Confidence != want.Confidence ||
			r.Verdict.Reason != want.Reason || r.Verdict.Features != want.Features {
			t.Fatalf("flow %v verdict diverges from batch:\ngot:  %+v\nwant: %+v", r.Flow, r.Verdict, want)
		}
		if errText(r.Err) != errText(wantErr) {
			t.Fatalf("flow %v error diverges: got %v, want %v", r.Flow, r.Err, wantErr)
		}
	}
}

// A flow whose records keep arriving after its early verdict must not be
// re-tracked: the tombstone absorbs the tail and exactly one verdict is
// emitted.
func TestTombstoneAbsorbsPostVerdictRecords(t *testing.T) {
	clf := trainToy(t)
	var emitted []FlowResult
	tab := NewTable(Config{Classifier: clf, Emit: func(r FlowResult) { emitted = append(emitted, r) }})

	recs := flowTrace(flowSpec{flow: mkFlow(1), isn: 500, samples: 12, retx: true, rising: true})
	// Tail: more data and ACKs for the same flow after the retransmission.
	tail := flowTrace(flowSpec{flow: mkFlow(1), isn: 500 + 20*1460, start: sim.Time(5 * time.Second), samples: 3})
	for i := range recs {
		tab.Observe(&recs[i])
	}
	for i := range tail {
		tab.Observe(&tail[i])
	}
	tab.Flush()
	if len(emitted) != 1 || !emitted[0].Early {
		t.Fatalf("got %d verdicts (early=%v), want exactly 1 early verdict", len(emitted), len(emitted) > 0 && emitted[0].Early)
	}
}

// Offer under a stalled consumer drops exactly the overflow and counts it;
// Feed remains lossless; everything accepted is eventually observed.
func TestPumpBackpressure(t *testing.T) {
	clf := trainToy(t)
	const buffer = 4

	emitEntered := make(chan struct{})
	release := make(chan struct{})
	tab := NewTable(Config{Classifier: clf, Emit: func(FlowResult) {
		emitEntered <- struct{}{}
		<-release
	}})
	p := NewPump(tab, buffer)

	// Drive one flow up to its early verdict: the retransmission record is
	// the third-from-last of the trace, so feed exactly through it. Emit
	// then blocks the drain goroutine with the channel fully drained.
	recs := flowTrace(flowSpec{flow: mkFlow(0), isn: 100, samples: 12, retx: true, rising: true})
	lead := recs[:len(recs)-2]
	for _, rec := range lead {
		p.Feed(rec)
	}
	p.Flush()
	<-emitEntered
	fed := uint64(len(lead))

	// Consumer is inside Emit and the channel is drained: the next
	// `buffer` Offers fit, everything beyond that is dropped.
	extra := append(append([]netem.CaptureRecord(nil), recs[len(recs)-2:]...),
		flowTrace(flowSpec{flow: mkFlow(1), isn: 900, samples: 5})...)
	accepted := 0
	for _, rec := range extra {
		if p.Offer(rec) {
			accepted++
		}
	}
	if accepted != buffer {
		t.Fatalf("accepted %d offers with a stalled consumer, want %d", accepted, buffer)
	}
	wantDropped := uint64(len(extra) - buffer)
	if p.Dropped() != wantDropped {
		t.Fatalf("Dropped() = %d, want %d", p.Dropped(), wantDropped)
	}
	close(release)
	go func() { // drain any further blocked Emit calls (flush of flow 1)
		for range emitEntered {
		}
	}()
	p.Close()
	tab.Flush()
	close(emitEntered)

	if p.Accepted() != fed+uint64(accepted) {
		t.Fatalf("Accepted() = %d, want %d", p.Accepted(), fed+uint64(accepted))
	}
	if got := tab.recordsObserved.Load(); got != p.Accepted() {
		t.Fatalf("table observed %d records, want accepted count %d", got, p.Accepted())
	}
}

// Slabs of every shape around the slab size deliver each record exactly
// once and in order. Each record opens its own flow, so the table numbers
// flows in observation order: the flushed verdicts, sorted by Seq, must
// name the flows in feed order, and the table must have observed exactly
// the accepted records. Partial hand-offs land at irregular points.
// Close joins the drain goroutine, so none is left once it returns.
func TestPumpSlabBoundaries(t *testing.T) {
	clf := trainToy(t)
	for _, buffer := range []int{1, 255, 256, 257} {
		var got []FlowResult
		tab := NewTable(Config{Classifier: clf, Emit: func(r FlowResult) { got = append(got, r) }})
		base := runtime.NumGoroutine()
		p := NewPump(tab, buffer)
		const n = 3*257 + 5
		for i := 0; i < n; i++ {
			p.Feed(netem.CaptureRecord{Dir: netem.DirOut, Pkt: netem.Packet{
				Flow: mkFlow(i),
				Seg:  netem.Segment{Seq: 1, PayloadLen: 1460, Flags: netem.FlagACK},
			}})
			if i%97 == 0 || i%131 == 0 {
				p.Flush()
			}
		}
		p.Close()
		waitForGoroutines(t, base)
		tab.Flush()

		if len(got) != n {
			t.Fatalf("buffer %d: %d flows observed, want %d", buffer, len(got), n)
		}
		for i, r := range got {
			if r.Seq != uint64(i) || r.Flow != mkFlow(i) {
				t.Fatalf("buffer %d: flow #%d is %v (seq %d), want %v", buffer, i, r.Flow, r.Seq, mkFlow(i))
			}
		}
		if obs := tab.recordsObserved.Load(); obs != n || p.Accepted() != obs {
			t.Fatalf("buffer %d: observed %d records, accepted %d, want %d", buffer, obs, p.Accepted(), n)
		}
	}
}

// With a stalled consumer, Offer admits exactly buffer records however
// the buffer splits into slabs, handing off partial slabs included.
func TestPumpOfferBoundAcrossSlabs(t *testing.T) {
	clf := trainToy(t)
	for _, buffer := range []int{255, 256, 257, 600} {
		entered, release := make(chan struct{}), make(chan struct{})
		tab := NewTable(Config{Classifier: clf, Emit: func(FlowResult) {
			entered <- struct{}{}
			<-release
		}})
		p := NewPump(tab, buffer)
		recs := flowTrace(flowSpec{flow: mkFlow(0), isn: 100, samples: 12, retx: true, rising: true})
		for _, rec := range recs[:len(recs)-2] {
			p.Feed(rec)
		}
		p.Flush()
		<-entered // the consumer is stalled in Emit with nothing queued

		accepted := 0
		for i := 1; i <= buffer+100; i++ {
			if p.Offer(netem.CaptureRecord{Dir: netem.DirIn, Pkt: netem.Packet{Flow: mkFlow(i).Reverse()}}) {
				accepted++
			}
			if i%100 == 0 {
				p.Flush()
			}
		}
		if accepted != buffer || p.Dropped() != 100 {
			t.Fatalf("buffer %d: accepted %d, dropped %d with a stalled consumer; want %d and 100", buffer, accepted, p.Dropped(), buffer)
		}
		close(release)
		p.Close()
	}
}

// Concurrent feeders over a sharded table: every flow still gets exactly
// one verdict (run under -race in CI).
func TestConcurrentObserve(t *testing.T) {
	clf := trainToy(t)
	var mu sync.Mutex
	seen := make(map[netem.FlowKey]int)
	tab := NewTable(Config{Classifier: clf, Shards: 8, Emit: func(r FlowResult) {
		mu.Lock()
		seen[r.Flow]++
		mu.Unlock()
	}})

	const workers, flowsPer = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for f := 0; f < flowsPer; f++ {
				i := w*flowsPer + f
				recs := flowTrace(flowSpec{
					flow: netem.FlowKey{SrcAddr: 0x0a000001, DstAddr: netem.Addr(0x0a020000 + uint32(i)), SrcPort: 443, DstPort: netem.Port(3000 + i)},
					isn:  uint32(i), samples: 11, retx: i%2 == 0, rising: true,
				})
				for j := range recs {
					tab.Observe(&recs[j])
				}
			}
		}(w)
	}
	wg.Wait()
	tab.Flush()

	if len(seen) != workers*flowsPer {
		t.Fatalf("got verdicts for %d flows, want %d", len(seen), workers*flowsPer)
	}
	for flow, n := range seen {
		if n != 1 {
			t.Fatalf("flow %v got %d verdicts", flow, n)
		}
	}
}

// Metrics exposes the table counters in obs snapshot order with coherent
// values.
func TestTableMetrics(t *testing.T) {
	clf := trainToy(t)
	tab := NewTable(Config{Classifier: clf, Emit: func(FlowResult) {}})
	recs := flowTrace(flowSpec{flow: mkFlow(0), isn: 1, samples: 11, retx: true, rising: true})
	for i := range recs {
		tab.Observe(&recs[i])
	}
	ms := tab.Metrics()
	vals := map[string]float64{}
	for i, m := range ms {
		vals[m.Name] = m.Value
		if i > 0 && (ms[i-1].Type > m.Type || (ms[i-1].Type == m.Type && ms[i-1].Name >= m.Name)) {
			t.Fatalf("metrics not in (type, name) order: %s/%s before %s/%s", ms[i-1].Type, ms[i-1].Name, m.Type, m.Name)
		}
	}
	if vals["stream.records_observed"] != float64(len(recs)) {
		t.Fatalf("records_observed = %v, want %d", vals["stream.records_observed"], len(recs))
	}
	if vals["stream.flows_tracked"] != 1 || vals["stream.verdicts_emitted"] != 1 {
		t.Fatalf("flows_tracked/verdicts_emitted = %v/%v, want 1/1", vals["stream.flows_tracked"], vals["stream.verdicts_emitted"])
	}
	if vals["stream.flows_live"] != 0 || vals["stream.flows_resident"] != 1 {
		t.Fatalf("flows_live/resident = %v/%v, want 0/1 (tombstone)", vals["stream.flows_live"], vals["stream.flows_resident"])
	}
}

// waitForGoroutines yields until runtime.NumGoroutine is back to base. A
// goroutine that has signalled its join may not have returned yet, so one
// read would race it. The bound counts yields rather than wall-clock time,
// which simdeterminism keeps out of this package, tests included.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > base; i++ {
		if i == 1_000_000 {
			t.Fatalf("%d goroutines still running, want at most %d", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}
