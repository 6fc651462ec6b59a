// Package benchkit holds the hot-path micro-benchmark bodies shared by
// the root bench_test.go suite (go test -bench) and the `ccsig bench`
// subcommand, which drives them through testing.Benchmark to emit
// versioned perf-trajectory artifacts without a Go toolchain at runtime.
//
// Every body calls b.ReportAllocs, so allocation counts are recorded even
// when the driver does not pass -benchmem — the artifact comparator
// treats allocs/op as a first-class regression signal.
package benchkit

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"time"

	"tcpsig/internal/core"
	"tcpsig/internal/dtree"
	"tcpsig/internal/features"
	"tcpsig/internal/flowrtt"
	"tcpsig/internal/netem"
	"tcpsig/internal/obs"
	"tcpsig/internal/pcap"
	"tcpsig/internal/sim"
	"tcpsig/internal/stream"
	"tcpsig/internal/tcpsim"
)

// Benchmark is one runnable hot-path benchmark.
type Benchmark struct {
	Name string
	Fn   func(*testing.B)
}

// All returns the benchmark registry in display order. The names are the
// artifact keys: renaming one shows up as a removed+added pair in every
// later comparator run, so treat them as stable identifiers.
func All() []Benchmark {
	return []Benchmark{
		{"EngineEvents", EngineEvents},
		{"NetemEnqueue", NetemEnqueue},
		{"NetemEnqueueTraced", NetemEnqueueTraced},
		{"SenderStep", SenderStep},
		{"SenderStepTraced", SenderStepTraced},
		{"EmulatedTransfer", EmulatedTransfer},
		{"FlowRTTExtraction", FlowRTTExtraction},
		{"StreamIngest", StreamIngest},
		{"ServeCapture", ServeCapture},
		{"FeatureExtraction", FeatureExtraction},
		{"TreePredict", TreePredict},
	}
}

// EngineEvents measures the raw discrete-event engine throughput.
func EngineEvents(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine(1)
	var fn func()
	n := 0
	fn = func() {
		n++
		if n < b.N {
			eng.Schedule(time.Microsecond, fn)
		}
	}
	b.ResetTimer()
	eng.Schedule(0, fn)
	eng.Run()
	if n < b.N {
		b.Fatalf("ran %d events", n)
	}
}

// dropTailLink is the gigabit drop-tail link the registered NetemEnqueue
// bodies measure.
func dropTailLink(*sim.Engine) netem.LinkConfig {
	return netem.LinkConfig{RateBps: 1e9, Queue: netem.NewDropTail(1 << 20)}
}

// netemEnqueue drives the link admission/serialization hot path: pooled
// packets are pushed through the src→dst link that link configures, and
// the engine drains deliveries (and buffer releases — the dequeue path)
// every 256 sends, returning the packets to the network free list.
func netemEnqueue(b *testing.B, sink *obs.Sink, link func(*sim.Engine) netem.LinkConfig) {
	b.ReportAllocs()
	eng := sim.NewEngine(1)
	obs.Attach(eng, sink)
	net := netem.New(eng)
	src := net.NewHost("src")
	dst := net.NewHost("dst")
	toDst, _ := net.Connect(src, dst, link(eng), netem.LinkConfig{RateBps: 1e9})
	flow := netem.FlowKey{SrcAddr: src.Addr(), DstAddr: dst.Addr(), SrcPort: 1, DstPort: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := net.NewPacket()
		p.Flow = flow
		p.Size = 1500
		toDst.Send(p)
		if i%256 == 255 {
			eng.Run()
		}
	}
}

// NetemEnqueue is the disabled-sink baseline: the observability layer
// must cost ~nothing here (a nil check per event).
func NetemEnqueue(b *testing.B) { netemEnqueue(b, nil, dropTailLink) }

// NetemEnqueueTraced measures the same path with tracing on.
func NetemEnqueueTraced(b *testing.B) {
	netemEnqueue(b, &obs.Sink{Trace: obs.NewTracer(0)}, dropTailLink)
}

// senderStep measures the steady-state cost of one engine event during an
// ACK-clocked transfer — the TCP sender/receiver stepping dominates — with
// or without a sink. The transfer is set up once, warmed past slow start,
// and then stepped one event per iteration, so per-connection setup cost
// never pollutes the per-event figure and the loop body is a designated
// zero-alloc path (pooled packets, recycled buffers, no per-event state).
//
// With routed set, two downloads share the bottleneck through a router and
// their ACKs return over a jittered link; FIFO delivery clamps jittered
// ACKs onto one instant, as in the testbed's external scenario, so bursts
// reach the server through Host.DeliverBatch and Sender.InputBatch.
func senderStep(b *testing.B, attach, routed bool) {
	b.ReportAllocs()
	eng := sim.NewEngine(1)
	if attach {
		obs.Attach(eng, &obs.Sink{Trace: obs.NewTracer(0), Metrics: obs.NewRegistry()})
	}
	net := netem.New(eng)
	server := net.NewHost("server")
	q := netem.NewDropTailDepth(20e6, 100*time.Millisecond)
	// 10 hours of virtual transfer ≈ 250M events at this rate — far more
	// than any benchtime will step through.
	if routed {
		router := net.NewRouter("router")
		net.Connect(server, router,
			netem.LinkConfig{RateBps: 20e6, Delay: 10 * time.Millisecond, Queue: q},
			netem.LinkConfig{RateBps: 100e6, Delay: 10 * time.Millisecond, Jitter: time.Millisecond})
		clients := []*netem.Host{net.NewHost("client0"), net.NewHost("client1")}
		for _, client := range clients {
			net.Connect(router, client,
				netem.LinkConfig{RateBps: 1e9, Delay: 10 * time.Millisecond},
				netem.LinkConfig{RateBps: 1e9, Delay: 10 * time.Millisecond})
		}
		net.ComputeRoutes()
		for i, client := range clients {
			tcpsim.StartDownload(client, server, 40000, netem.Port(80+i), tcpsim.Config{}, 0, 10*time.Hour)
		}
	} else {
		client := net.NewHost("client")
		net.Connect(server, client,
			netem.LinkConfig{RateBps: 20e6, Delay: 20 * time.Millisecond, Queue: q},
			netem.LinkConfig{RateBps: 100e6, Delay: 20 * time.Millisecond})
		tcpsim.StartDownload(client, server, 40000, 80, tcpsim.Config{}, 0, 10*time.Hour)
	}
	eng.RunFor(2 * time.Second) // past slow start, into steady state
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !eng.Step() {
			b.Fatal("event queue drained")
		}
	}
}

// SenderStep is the disabled-sink sender hot-path baseline.
func SenderStep(b *testing.B) { senderStep(b, false, false) }

// SenderStepTraced measures the sender with tracing and metrics on.
func SenderStepTraced(b *testing.B) { senderStep(b, true, false) }

// EmulatedTransfer measures raw emulation speed: a 10-second 20 Mbps
// throughput test per iteration.
func EmulatedTransfer(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(int64(i + 1))
		net := netem.New(eng)
		client := net.NewHost("client")
		server := net.NewHost("server")
		q := netem.NewDropTailDepth(20e6, 100*time.Millisecond)
		net.Connect(server, client,
			netem.LinkConfig{RateBps: 20e6, Delay: 20 * time.Millisecond, Queue: q},
			netem.LinkConfig{RateBps: 100e6, Delay: 20 * time.Millisecond})
		d := tcpsim.StartDownload(client, server, 40000, 80, tcpsim.Config{}, 0, 10*time.Second)
		eng.Run()
		if !d.Receiver.Done() {
			b.Fatal("transfer incomplete")
		}
		b.SetBytes(d.Receiver.BytesReceived())
	}
}

// FlowRTTExtraction measures trace analysis over a captured 10-second
// transfer.
func FlowRTTExtraction(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine(77)
	net := netem.New(eng)
	client := net.NewHost("client")
	server := net.NewHost("server")
	q := netem.NewDropTailDepth(20e6, 100*time.Millisecond)
	net.Connect(server, client,
		netem.LinkConfig{RateBps: 20e6, Delay: 20 * time.Millisecond, Queue: q},
		netem.LinkConfig{RateBps: 100e6, Delay: 20 * time.Millisecond})
	capt := server.EnableCapture()
	tcpsim.StartDownload(client, server, 40000, 80, tcpsim.Config{}, 0, 10*time.Second)
	eng.Run()
	flow := flowrtt.Flows(capt.Records)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		info, err := flowrtt.Analyze(capt.Records, flow)
		if err != nil {
			b.Fatal(err)
		}
		if len(info.SlowStart) < 10 {
			b.Fatal("too few samples")
		}
	}
}

// ingestFixture is the input of the streaming bodies: the server-side
// capture of a 10-second transfer, and a classifier trained on synthetic
// feature points.
func ingestFixture(b *testing.B) (*netem.Capture, netem.Addr, *core.Classifier) {
	eng := sim.NewEngine(77)
	net := netem.New(eng)
	client := net.NewHost("client")
	server := net.NewHost("server")
	q := netem.NewDropTailDepth(20e6, 100*time.Millisecond)
	net.Connect(server, client,
		netem.LinkConfig{RateBps: 20e6, Delay: 20 * time.Millisecond, Queue: q},
		netem.LinkConfig{RateBps: 100e6, Delay: 20 * time.Millisecond})
	capt := server.EnableCapture()
	tcpsim.StartDownload(client, server, 40000, 80, tcpsim.Config{}, 0, 10*time.Second)
	eng.Run()

	rng := rand.New(rand.NewSource(3))
	var ex []dtree.Example
	for i := 0; i < 200; i++ {
		nd, cov := rng.Float64(), rng.Float64()
		label := 0
		if nd > 0.5 {
			label = 1
		}
		ex = append(ex, dtree.Example{X: []float64{nd, cov}, Label: label})
	}
	clf, err := core.Train(ex, core.TrainOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return capt, server.Addr(), clf
}

// StreamIngest measures the streaming classification table end to end:
// every capture record of a 10-second transfer is fed through one recycling
// Table per iteration, then Flush classifies the flow. The table persists
// across iterations, so after the first pass its free lists supply all
// per-flow state and the steady-state figure isolates ingest cost.
func StreamIngest(b *testing.B) {
	b.ReportAllocs()
	capt, _, clf := ingestFixture(b)
	verdicts := 0
	table := stream.NewTable(stream.Config{
		Classifier: clf,
		Emit:       func(stream.FlowResult) { verdicts++ },
		Recycle:    true,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range capt.Records {
			table.Observe(&capt.Records[j])
		}
		table.Flush()
	}
	if verdicts < b.N {
		b.Fatalf("expected >=%d verdicts, got %d", b.N, verdicts)
	}
}

// ServeCapture measures what `ccsig serve` does with a capture, in
// process: each iteration decodes the transfer's pcap bytes, converts the
// records, feeds them through a fresh Pump (handing off a partial slab
// where serve would, when the reader's buffer runs dry) into one
// recycling Table, and flushes it. The per-serve setup — reader buffer,
// pump, drain goroutine — is part of each iteration.
func ServeCapture(b *testing.B) {
	b.ReportAllocs()
	capt, server, clf := ingestFixture(b)
	var raw bytes.Buffer
	if err := pcap.NewWriter(&raw).WriteCapture(capt); err != nil {
		b.Fatal(err)
	}
	ip := pcap.ServerIP(server)
	verdicts := 0
	table := stream.NewTable(stream.Config{
		Classifier: clf,
		Emit:       func(stream.FlowResult) { verdicts++ },
		Recycle:    true,
	})
	b.SetBytes(int64(raw.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd := pcap.NewReader(bytes.NewReader(raw.Bytes()))
		p := stream.NewPump(table, 0)
		for {
			rec, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			p.Feed(pcap.RecordToCapture(rec, ip))
			if rd.Buffered() == 0 {
				p.Flush()
			}
		}
		p.Close()
		table.Flush()
	}
	if verdicts < b.N {
		b.Fatalf("expected >=%d verdicts, got %d", b.N, verdicts)
	}
}

// pumpFeed measures the steady-state pump hand-off: the capture's records
// are fed round and round through one Pump into a recycling Table. After
// the warm-up pass the flow is a tombstone, as most records are in a
// long-running serve.
func pumpFeed(b *testing.B) {
	b.ReportAllocs()
	capt, _, clf := ingestFixture(b)
	table := stream.NewTable(stream.Config{Classifier: clf, Emit: func(stream.FlowResult) {}, Recycle: true})
	p := stream.NewPump(table, 0)
	recs := capt.Records
	for _, rec := range recs {
		p.Feed(rec)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Feed(recs[i%len(recs)])
	}
	b.StopTimer()
	p.Close()
	table.Flush()
}

// FeatureExtraction measures NormDiff/CoV computation.
func FeatureExtraction(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	rtts := make([]time.Duration, 200)
	for i := range rtts {
		rtts[i] = time.Duration(20+rng.Intn(100)) * time.Millisecond
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := features.FromRTTs(rtts, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// TreePredict measures single-flow classification.
func TreePredict(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(2))
	var ex []dtree.Example
	for i := 0; i < 500; i++ {
		x, y := rng.Float64(), rng.Float64()
		label := 0
		if x+y > 1 {
			label = 1
		}
		ex = append(ex, dtree.Example{X: []float64{x, y}, Label: label})
	}
	tree, err := dtree.Train(ex, dtree.Options{})
	if err != nil {
		b.Fatal(err)
	}
	probe := []float64{0.4, 0.7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Predict(probe)
	}
}
