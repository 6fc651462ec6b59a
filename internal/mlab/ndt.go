// Package mlab reproduces the paper's real-world validation datasets (§4)
// on the emulator:
//
//   - Dispute2014: NDT throughput tests across (transit site × access ISP ×
//     month-period × hour-of-day) cells spanning the 2014 Cogent peering
//     dispute, with diurnal interconnect congestion on affected pairs.
//   - TSLP2017: targeted tests between one 25 Mbps client and one server
//     behind an episodically congested interconnect, with TSLP-style
//     near/far router latency probes providing ground truth.
//
// The real datasets are crowdsourced and coarsely labeled; these generators
// reproduce the same path structure, labeling regimes, and evaluation
// protocol with a known ground truth.
package mlab

import (
	"fmt"
	"time"

	"tcpsig/internal/features"
	"tcpsig/internal/flowrtt"
	"tcpsig/internal/netem"
	"tcpsig/internal/sim"
	"tcpsig/internal/tcpsim"
	"tcpsig/internal/trafficgen"
)

// PathParams describes one NDT test's emulated path: an M-Lab server behind
// a transit network, an interconnect to the access ISP, and the client's
// access link.
type PathParams struct {
	// AccessMbps is the client's service-plan rate.
	AccessMbps float64

	// AccessBuffer is the last-mile buffer depth (CMTS/DSLAM).
	AccessBuffer time.Duration

	// AccessLatency is the added access RTT (split across directions).
	AccessLatency time.Duration

	// InterMbps is the interconnect capacity. The emulated interconnect
	// stands in for a multi-hundred-gigabit real link; what matters for
	// the signature is only that it is far above any access plan and
	// that cross traffic can saturate it.
	InterMbps float64

	// InterBuffer is the interconnect router buffer depth.
	InterBuffer time.Duration

	// CongFlows saturates the interconnect with that many concurrent
	// bulk flows; 0 leaves it idle.
	CongFlows int

	// Duration is the NDT test length (default 10 s).
	Duration time.Duration

	// Seed drives all randomness.
	Seed int64
}

func (p PathParams) withDefaults() PathParams {
	if p.InterMbps == 0 {
		p.InterMbps = 200
	}
	if p.InterBuffer == 0 {
		p.InterBuffer = 50 * time.Millisecond
	}
	if p.AccessBuffer == 0 {
		p.AccessBuffer = 100 * time.Millisecond
	}
	if p.Duration == 0 {
		p.Duration = 10 * time.Second
	}
	return p
}

// NDTResult is one emulated NDT measurement with Web100-like statistics and
// the TSLP-style probe RTTs taken just before the test.
type NDTResult struct {
	// ThroughputBps is the server-side goodput over the test.
	ThroughputBps float64

	// Features is the slow-start RTT feature vector; FeaturesValid is
	// false when the flow failed the 10-sample filter.
	Features       features.Vector
	FeaturesValid  bool
	FeaturesErrMsg string

	// Flow is the raw trace analysis (nil if the flow never sent data).
	Flow *flowrtt.FlowInfo

	// Web100 carries the sender-side counters, including the
	// congestion/receiver/sender-limited accounting the paper filters
	// on (>= 90% congestion-limited).
	Web100 tcpsim.SenderStats

	// NearRTT and FarRTT are ping RTTs from the client to hosts on the
	// near and far side of the interconnect, measured in-emulation just
	// before the test begins (the TSLP measurement).
	NearRTT time.Duration
	FarRTT  time.Duration
}

// CongestionLimitedFrac returns the fraction of test time the sender was
// congestion limited (Web100 filter from §4.1).
func (r *NDTResult) CongestionLimitedFrac() float64 {
	total := r.Web100.CongestionLimited + r.Web100.ReceiverLimited + r.Web100.SenderLimited
	if total == 0 {
		return 0
	}
	return float64(r.Web100.CongestionLimited) / float64(total)
}

// PassesNDTFilter applies the paper's pre-processing: the test ran to
// completion and spent at least 90% of it congestion limited.
func (r *NDTResult) PassesNDTFilter() bool {
	return r.Flow != nil && r.CongestionLimitedFrac() >= 0.9
}

// echoServer reflects any packet back to its sender, for RTT probes.
type echoServer struct{ host *netem.Host }

func (e *echoServer) Input(p *netem.Packet) {
	// p is borrowed from Deliver; the reply comes from the pool.
	q := e.host.NewPacket()
	q.Flow = p.Flow.Reverse()
	q.Seg = netem.Segment{Flags: netem.FlagACK, Ack: p.Seg.Seq + 1}
	q.Size = netem.HeaderBytes
	e.host.Send(q)
}

// pinger sends a burst of spaced probes and averages the replies, like
// TSLP's repeated probing (individual probes can be lost in a congested
// queue, and a single probe can land in a momentary queue dip).
type pinger struct {
	host    *netem.Host
	sentAt  map[uint32]sim.Time
	sumRTT  time.Duration
	replies int
}

func (pg *pinger) Input(p *netem.Packet) {
	sent, ok := pg.sentAt[p.Seg.Ack-1]
	if !ok {
		return
	}
	delete(pg.sentAt, p.Seg.Ack-1)
	pg.sumRTT += pg.host.Engine().Now() - sent
	pg.replies++
}

func (pg *pinger) got() bool { return pg.replies > 0 }

func (pg *pinger) meanRTT() time.Duration {
	if pg.replies == 0 {
		return 0
	}
	return pg.sumRTT / time.Duration(pg.replies)
}

// ping launches n probes spaced by gap toward server:serverPort.
func ping(client *netem.Host, clientPort netem.Port, server netem.Addr, serverPort netem.Port, n int, gap time.Duration) *pinger {
	pg := &pinger{host: client, sentAt: make(map[uint32]sim.Time)}
	client.Bind(clientPort, pg)
	eng := client.Engine()
	flow := netem.FlowKey{SrcAddr: client.Addr(), DstAddr: server, SrcPort: clientPort, DstPort: serverPort}
	for i := 0; i < n; i++ {
		seq := uint32(i + 1)
		eng.Schedule(time.Duration(i)*gap, func() {
			pg.sentAt[seq] = eng.Now()
			q := client.NewPacket()
			q.Flow = flow
			q.Seg = netem.Segment{Seq: seq}
			q.Size = netem.HeaderBytes
			client.Send(q)
		})
	}
	return pg
}

// RunNDT emulates one NDT download test over the given path, including the
// TSLP near/far probes, and returns the measurement.
func RunNDT(p PathParams) (*NDTResult, error) {
	p = p.withDefaults()
	eng := sim.NewEngine(p.Seed)
	net := netem.New(eng)

	server := net.NewHost("mlab-server")
	rTransit := net.NewRouter("transit")
	rAccess := net.NewRouter("access")
	client := net.NewHost("client")
	nearHost := net.NewHost("near") // TSLP near-side reflector
	farHost := net.NewHost("far")   // TSLP far-side reflector
	congSrv := net.NewHost("congsrv")
	congCli := net.NewHost("congcli")

	gig := netem.LinkConfig{RateBps: 1e9}
	interRate := p.InterMbps * 1e6
	accessRate := p.AccessMbps * 1e6

	// Server sits a few ms inside the transit network.
	net.Connect(server, rTransit,
		netem.LinkConfig{RateBps: 1e9, Delay: 2 * time.Millisecond},
		netem.LinkConfig{RateBps: 1e9, Delay: 2 * time.Millisecond})
	// Interconnect: congestible in the server->client direction.
	net.Connect(rTransit, rAccess,
		netem.LinkConfig{RateBps: interRate, Queue: netem.NewDropTailDepth(interRate, p.InterBuffer)},
		gig)
	// Access link.
	oneWay := p.AccessLatency / 2
	net.Connect(rAccess, client,
		netem.LinkConfig{
			RateBps: accessRate,
			Delay:   oneWay,
			Jitter:  time.Millisecond,
			Queue:   netem.NewDropTailDepth(accessRate, p.AccessBuffer),
			Bucket:  netem.NewTokenBucket(accessRate, 5000),
		},
		netem.LinkConfig{RateBps: 100e6, Delay: oneWay, Jitter: time.Millisecond})
	// TSLP reflectors.
	net.Connect(nearHost, rAccess, gig, gig)
	net.Connect(farHost, rTransit, gig, gig)
	// Cross-traffic path: congCli behind the access router pulls from
	// congSrv behind the transit router, sharing the interconnect but
	// not the client's access link.
	net.Connect(congSrv, rTransit,
		netem.LinkConfig{RateBps: 1e9, Delay: time.Millisecond, Jitter: 500 * time.Microsecond},
		netem.LinkConfig{RateBps: 1e9, Delay: time.Millisecond, Jitter: 500 * time.Microsecond})
	net.Connect(rAccess, congCli, gig, gig)
	net.ComputeRoutes()

	nearEcho := &echoServer{host: nearHost}
	nearHost.Bind(7, nearEcho)
	farEcho := &echoServer{host: farHost}
	farHost.Bind(7, farEcho)

	if p.CongFlows > 0 {
		// CUBIC cross traffic, as Linux bulk transfers would be.
		cubicCfg := tcpsim.Config{NewCC: func() tcpsim.CongestionControl { return &tcpsim.Cubic{} }}
		tcpsim.NewBulkServer(congSrv, 9000, cubicCfg, 200_000_000, 0)
		tgc := trafficgen.NewTGCong(trafficgen.NewFetcher(congCli, 30000, cubicCfg), congSrv.Addr(), 9000)
		tgc.StartStaggered(p.CongFlows, 2*time.Second)
		eng.RunFor(4 * time.Second)
	} else {
		eng.RunFor(100 * time.Millisecond)
	}

	// TSLP probes just before the test.
	nearPing := ping(client, 33001, nearHost.Addr(), 7, 5, 80*time.Millisecond)
	farPing := ping(client, 33002, farHost.Addr(), 7, 5, 80*time.Millisecond)
	eng.RunFor(500 * time.Millisecond)

	capt := server.EnableCapture()
	dl := tcpsim.StartDownload(client, server, 40000, 3001, tcpsim.Config{}, 0, p.Duration)
	// Stop once the server capture is final; the bound is for a test that
	// never closes.
	dl.RunUntilFinal(eng.Now() + p.Duration + 5*time.Second)

	res := &NDTResult{}
	if nearPing.got() {
		res.NearRTT = nearPing.meanRTT()
	}
	if farPing.got() {
		res.FarRTT = farPing.meanRTT()
	}
	if s := dl.Sender(); s != nil {
		res.Web100 = s.Stats()
	}
	flows := flowrtt.Flows(capt.Records)
	if len(flows) == 0 {
		return res, fmt.Errorf("mlab: NDT test produced no data flow")
	}
	info, err := flowrtt.Analyze(capt.Records, flows[0])
	if err != nil {
		return res, err
	}
	res.Flow = info
	res.ThroughputBps = info.ThroughputBps()
	if fv, ferr := features.FromRTTs(info.SlowStartRTTs(), 0); ferr == nil && info.Valid() {
		res.Features = fv
		res.FeaturesValid = true
	} else if ferr != nil {
		res.FeaturesErrMsg = ferr.Error()
	} else {
		res.FeaturesErrMsg = "too few slow-start samples"
	}
	return res, nil
}
