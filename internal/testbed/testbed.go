// Package testbed reproduces the paper's controlled-experiment testbed
// (§3.1, Figure 2) on the network emulator:
//
//	Server1 --1G-- Router1 ==InterConnectLink(950M,50ms buf)== Router2 --AccessLink(shaped)-- Pi1
//	                  |                                           |
//	             Servers 2/3/4                              Pi2 (100M, bypasses AccessLink)
//
// Pi1 runs the 10-second throughput test against Server1. TGTrans on Pi2
// provides transient cross-traffic toward Servers 2/3; TGCong saturates the
// interconnect with concurrent bulk transfers from Server4. Experiments are
// labeled by comparing the flow's slow-start throughput against a threshold
// fraction of the configured access-link capacity.
package testbed

import (
	"fmt"
	"time"

	"tcpsig/internal/features"
	"tcpsig/internal/flowrtt"
	"tcpsig/internal/netem"
	"tcpsig/internal/obs"
	"tcpsig/internal/sim"
	"tcpsig/internal/tcpsim"
	"tcpsig/internal/trafficgen"
)

// Class labels. SelfInduced means the flow saturated an otherwise idle
// bottleneck; External means it was bottlenecked by an already congested
// link.
const (
	SelfInduced = 0
	External    = 1
)

// ClassName returns a human-readable label name.
func ClassName(c int) string {
	if c == SelfInduced {
		return "self-induced"
	}
	return "external"
}

// AccessParams configures the emulated access link, mirroring the paper's
// tc settings.
type AccessParams struct {
	RateMbps float64       // 10, 20, 50 in the paper
	Loss     float64       // fraction: 0, 0.0002, 0.0005
	Latency  time.Duration // one-way RTT contribution: 20ms, 40ms
	Jitter   time.Duration // 2ms in the paper
	Buffer   time.Duration // 20ms, 50ms, 100ms
}

// Config describes one experiment run.
type Config struct {
	Access AccessParams

	// CongFlows is the TGCong concurrency (the paper's 100 curl loop);
	// 0 disables external congestion.
	CongFlows int

	// TransCross enables TGTrans transient cross-traffic (always on in
	// the paper's runs).
	TransCross bool

	// AccessCrossFlows adds competing bulk flows through the access link
	// itself (the §3.3 multiplexing experiment).
	AccessCrossFlows int

	// Duration is the throughput-test length (default 10 s).
	Duration time.Duration

	// WarmUp lets cross traffic reach steady state before the test
	// (default 2 s with congestion, 200 ms otherwise).
	WarmUp time.Duration

	// Seed drives all randomness in the run.
	Seed int64

	// CC optionally overrides the congestion controller for the test
	// flow (default Reno). Function-valued and therefore excluded from
	// the JSON form a checkpointed sweep persists; a sweep that varies CC
	// must vary its checkpoint stage name instead (see
	// SweepOptions.identity).
	CC func() tcpsim.CongestionControl `json:"-"`

	// RED switches the access-link buffer to RED instead of drop-tail
	// (§6 AQM ablation).
	RED bool

	// ECN additionally makes the RED buffer mark instead of early-drop
	// (RFC 3168); implies RED. With ECN the test flow may see no
	// retransmission at all, moving the trace-based slow-start boundary.
	ECN bool

	// InterBufferMS optionally overrides the 50 ms interconnect buffer.
	InterBuffer time.Duration

	// Faults, when non-nil, builds a fault injector (seeded with the
	// run's seed) that is attached to the access link's data direction,
	// stressing the test flow with hostile path dynamics (see
	// internal/faults and SweepFaults). Excluded from the persisted JSON
	// form like CC.
	Faults func(seed int64) netem.FaultInjector `json:"-"`

	// Obs, when non-nil, is attached to the run's engine before topology
	// construction: links and senders emit trace events into it, and run
	// summary metrics are collected into its registry at the end. A nil
	// sink leaves the hot paths at their uninstrumented cost. Runtime
	// plumbing, not a parameter: excluded from the persisted JSON form.
	Obs *obs.Sink `json:"-"`

	// Capture, when non-nil, receives the server-side packet capture after
	// the run completes, before analysis — even when the run then fails
	// validity checks. Used to export golden pcap traces (ccsig trace
	// -pcap). Runtime plumbing like Obs: excluded from the persisted JSON
	// form and from Result, which checkpointed sweeps serialize.
	Capture func(*netem.Capture) `json:"-"`
}

func (c Config) withDefaults() Config {
	if c.Duration == 0 {
		c.Duration = 10 * time.Second
	}
	if c.WarmUp == 0 {
		if c.CongFlows > 0 {
			c.WarmUp = 2 * time.Second
		} else {
			c.WarmUp = 200 * time.Millisecond
		}
	}
	if c.InterBuffer == 0 {
		c.InterBuffer = 50 * time.Millisecond
	}
	return c
}

// Result is the outcome of one throughput test.
type Result struct {
	Config Config

	// Features computed from the slow-start RTT samples.
	Features features.Vector

	// Flow is the full trace analysis.
	Flow *flowrtt.FlowInfo

	// SlowStartBps and FlowBps are goodput during slow start and over
	// the whole test.
	SlowStartBps float64
	FlowBps      float64

	// Scenario records the intended condition (External when CongFlows >
	// 0, else SelfInduced).
	Scenario int
}

// Label applies the paper's threshold rule: slow-start throughput above
// threshold × access capacity means the flow filled its access link
// (self-induced congestion); below means it was externally limited.
func (r *Result) Label(threshold float64) int {
	if r.SlowStartBps >= threshold*r.Config.Access.RateMbps*1e6 {
		return SelfInduced
	}
	return External
}

// Run executes one experiment and returns the analyzed result. It fails if
// the flow does not yield enough slow-start RTT samples (the paper discards
// such tests too).
//
// The run ends as soon as the test flow's server capture is final
// (tcpsim.Download.RunUntilFinal): both endpoints are closed and none of
// their packets is left in the network, so simulating the cross traffic any
// longer could not change the capture or anything derived from it. A flow
// that never closes ends the run Duration + 5 s after the test starts.
func Run(cfg Config) (*Result, error) { return run(cfg, nil) }

// run is Run with a seam for the exactness tests: a non-nil tail is called
// with the engine and the run's deadline once the run has ended, before the
// capture is handed out and analyzed.
func run(cfg Config, tail func(eng *sim.Engine, deadline sim.Time)) (*Result, error) {
	cfg = cfg.withDefaults()
	eng := sim.NewEngine(cfg.Seed)
	if cfg.Obs != nil {
		obs.Attach(eng, cfg.Obs)
	}
	net := netem.New(eng)

	// Nodes.
	server1 := net.NewHost("server1")
	server23 := net.NewHost("server2") // TGTrans target (20 ms away)
	server3 := net.NewHost("server3")  // TGTrans target (60 ms away)
	server4 := net.NewHost("server4")  // TGCong target (<2 ms away)
	r1 := net.NewRouter("router1")
	r2 := net.NewRouter("router2")
	pi1 := net.NewHost("pi1")
	pi2 := net.NewHost("pi2")
	congClient := net.NewHost("congclient") // runs on Router2 in the paper

	gig := netem.LinkConfig{RateBps: 1e9}

	// Server attachments (Link 3 and the Internet side).
	net.Connect(server1, r1, gig, gig)
	net.Connect(server23, r1, netem.LinkConfig{RateBps: 1e9, Delay: 10 * time.Millisecond}, netem.LinkConfig{RateBps: 1e9, Delay: 10 * time.Millisecond})
	net.Connect(server3, r1, netem.LinkConfig{RateBps: 1e9, Delay: 30 * time.Millisecond}, netem.LinkConfig{RateBps: 1e9, Delay: 30 * time.Millisecond})
	// A little jitter on the bulk-transfer path breaks the TCP phase
	// locking that perfectly identical RTTs would otherwise cause among
	// the TGCong flows (real testbed flows desynchronize through OS
	// scheduling noise).
	net.Connect(server4, r1,
		netem.LinkConfig{RateBps: 1e9, Delay: time.Millisecond, Jitter: 500 * time.Microsecond},
		netem.LinkConfig{RateBps: 1e9, Delay: time.Millisecond, Jitter: 500 * time.Microsecond})

	// InterConnectLink: 950 Mbps shaped, 50 ms buffer, no added latency.
	interQ := netem.NewDropTailDepth(950e6, cfg.InterBuffer)
	net.Connect(r1, r2,
		netem.LinkConfig{RateBps: 950e6, Queue: interQ},
		gig)

	// AccessLink: token-bucket shaped with a 5 KB burst like the paper's
	// tc setup; latency split across both directions so the configured
	// value is the added RTT.
	rate := cfg.Access.RateMbps * 1e6
	var accessQ netem.Queue
	if cfg.RED || cfg.ECN {
		capB := netem.BufferBytes(rate, cfg.Access.Buffer)
		red := netem.NewRED(eng, capB, capB/4, capB*3/4, 0.1, rate)
		red.ECN = cfg.ECN
		accessQ = red
	} else {
		accessQ = netem.NewDropTailDepth(rate, cfg.Access.Buffer)
	}
	oneWay := cfg.Access.Latency / 2
	downCfg := netem.LinkConfig{
		RateBps: rate,
		Delay:   oneWay,
		Jitter:  cfg.Access.Jitter,
		Loss:    cfg.Access.Loss,
		Queue:   accessQ,
		Bucket:  netem.NewTokenBucket(rate, 5000),
	}
	if cfg.Faults != nil {
		downCfg.Faults = cfg.Faults(cfg.Seed)
	}
	net.Connect(r2, pi1,
		downCfg,
		netem.LinkConfig{RateBps: 100e6, Delay: oneWay, Jitter: cfg.Access.Jitter})

	// Pi2 bypasses the access link (100 Mbps NIC).
	net.Connect(r2, pi2, netem.LinkConfig{RateBps: 100e6}, netem.LinkConfig{RateBps: 100e6})
	// TGCong's client sits on Router2 itself.
	net.Connect(r2, congClient, gig, gig)

	net.ComputeRoutes()

	tcpCfg := tcpsim.Config{}
	if cfg.CC != nil {
		tcpCfg.NewCC = cfg.CC
	}

	// Cross traffic.
	if cfg.TransCross {
		targets := append(
			trafficgen.ServeObjects(server23, 8000, tcpsim.Config{}),
			trafficgen.ServeObjects(server3, 8000, tcpsim.Config{})...)
		tg := trafficgen.NewTGTrans(trafficgen.NewFetcher(pi2, 20000, tcpsim.Config{}), targets, 150*time.Millisecond)
		tg.Start()
	}
	if cfg.CongFlows > 0 {
		// Cross traffic runs CUBIC like the Linux curl processes in the
		// paper's testbed; its 0.7 backoff keeps the interconnect queue
		// steadier than Reno's halving would.
		cubicCfg := tcpsim.Config{NewCC: func() tcpsim.CongestionControl { return &tcpsim.Cubic{} }}
		tcpsim.NewBulkServer(server4, 9000, cubicCfg, 100_000_000, 0)
		tgc := trafficgen.NewTGCong(trafficgen.NewFetcher(congClient, 30000, cubicCfg), server4.Addr(), 9000)
		tgc.StartStaggered(cfg.CongFlows, cfg.WarmUp/2)
	}
	if cfg.AccessCrossFlows > 0 {
		// Competing bulk flows sharing the access link with the test
		// flow (§3.3): Pi1 fetches from Server2 concurrently, with
		// staggered starts like independently launched downloads.
		tcpsim.NewBulkServer(server23, 7000, tcpsim.Config{}, 1_000_000_000, 0)
		f := trafficgen.NewFetcher(pi1, 50000, tcpsim.Config{})
		for i := 0; i < cfg.AccessCrossFlows; i++ {
			d := time.Duration(eng.Rand().Int63n(int64(cfg.WarmUp/2) + 1))
			eng.Schedule(d, func() { f.Fetch(server23.Addr(), 7000, nil) })
		}
	}

	// Let cross traffic ramp up, then run the captured throughput test.
	eng.RunFor(cfg.WarmUp)
	capt := server1.EnableCapture()
	dl := tcpsim.StartDownload(pi1, server1, 40000, 80, tcpCfg, 0, cfg.Duration)
	deadline := eng.Now() + cfg.Duration + 5*time.Second
	dl.RunUntilFinal(deadline)
	if tail != nil {
		tail(eng, deadline)
	}

	if cfg.Capture != nil {
		cfg.Capture(capt)
	}
	flows := flowrtt.Flows(capt.Records)
	if len(flows) == 0 {
		return nil, fmt.Errorf("testbed: no test flow captured")
	}
	info, err := flowrtt.AnalyzeValid(capt.Records, flows[0])
	if err != nil {
		return nil, err
	}
	fv, err := features.FromRTTs(info.SlowStartRTTs(), 0)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Config:       cfg,
		Features:     fv,
		Flow:         info,
		SlowStartBps: info.SlowStartThroughputBps(),
		FlowBps:      info.ThroughputBps(),
		Scenario:     SelfInduced,
	}
	if cfg.CongFlows > 0 {
		res.Scenario = External
	}
	if reg := cfg.Obs.M(); reg != nil {
		netem.CollectMetrics(reg, net)
		obs.CollectEngine(reg, "", eng)
		tcpsim.CollectMetrics(reg, "tcpsim.test_flow.", dl.Sender())
		reg.Gauge("testbed.slow_start_mbps").Set(res.SlowStartBps / 1e6)
		reg.Gauge("testbed.flow_mbps").Set(res.FlowBps / 1e6)
		reg.Gauge("testbed.slow_start_rtt_samples").Set(float64(len(info.SlowStartRTTs())))
		reg.Gauge("testbed.scenario").Set(float64(res.Scenario))
	}
	return res, nil
}
