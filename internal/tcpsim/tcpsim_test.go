package tcpsim

import (
	"testing"
	"time"

	"tcpsig/internal/netem"
	"tcpsig/internal/sim"
)

// testNet builds client -- (downCfg) -- server with a symmetric fast reverse
// path unless upCfg is provided.
func testNet(seed int64, down netem.LinkConfig) (*sim.Engine, *netem.Host, *netem.Host) {
	eng := sim.NewEngine(seed)
	net := netem.New(eng)
	client := net.NewHost("client")
	server := net.NewHost("server")
	up := netem.LinkConfig{RateBps: 1e9, Delay: down.Delay}
	net.Connect(server, client, down, up)
	return eng, client, server
}

func TestHandshakeAndSmallTransfer(t *testing.T) {
	eng, client, server := testNet(1, netem.LinkConfig{RateBps: 10e6, Delay: 10 * time.Millisecond})
	d := StartDownload(client, server, 40000, 80, Config{}, 100_000, 0)
	eng.Run()
	if !d.Receiver.Done() {
		t.Fatal("transfer did not complete")
	}
	if got := d.Receiver.BytesReceived(); got != 100_000 {
		t.Fatalf("received %d bytes, want 100000", got)
	}
	s := d.Sender()
	if s == nil || !s.Done() {
		t.Fatal("sender not done")
	}
	if st := s.Stats(); st.BytesAcked < 100_000 {
		t.Fatalf("acked %d, want >= 100000", st.BytesAcked)
	}
}

func TestThroughputMatchesBottleneck(t *testing.T) {
	// 20 Mbps bottleneck, big buffer, 10s test: goodput should approach
	// 20 Mbps * 1460/1500 (header overhead) ~ 19.4 Mbps.
	q := netem.NewDropTailDepth(20e6, 100*time.Millisecond)
	eng, client, server := testNet(2, netem.LinkConfig{RateBps: 20e6, Delay: 10 * time.Millisecond, Queue: q})
	d := StartDownload(client, server, 40000, 80, Config{}, 0, 10*time.Second)
	eng.Run()
	if !d.Receiver.Done() {
		t.Fatal("transfer did not complete")
	}
	bps := d.ThroughputBps()
	if bps < 17e6 || bps > 20e6 {
		t.Fatalf("goodput = %.2f Mbps, want ~19", bps/1e6)
	}
}

func TestSlowStartDoubling(t *testing.T) {
	// With a fast unconstrained path and no loss, cwnd roughly doubles
	// per RTT from IW10; after the transfer the connection must never
	// have retransmitted.
	eng, client, server := testNet(3, netem.LinkConfig{RateBps: 1e9, Delay: 20 * time.Millisecond})
	d := StartDownload(client, server, 40000, 80, Config{}, 2_000_000, 0)
	eng.Run()
	st := d.Sender().Stats()
	if st.Retransmits != 0 || st.Timeouts != 0 {
		t.Fatalf("unexpected losses on clean path: %+v", st)
	}
	// 2 MB at 40 ms RTT: IW10 doubling needs ~7 RTTs; allow 12.
	elapsed := st.DoneAt - st.EstablishedAt
	if elapsed > 12*40*time.Millisecond {
		t.Fatalf("transfer took %v; slow start not exponential?", elapsed)
	}
}

func TestFastRetransmitRecoversSingleLoss(t *testing.T) {
	// Small random loss: fast retransmit should recover without timeouts
	// dominating, and all bytes must arrive exactly once in order.
	eng, client, server := testNet(4, netem.LinkConfig{RateBps: 50e6, Delay: 10 * time.Millisecond, Loss: 0.002, Queue: netem.NewDropTailDepth(50e6, 100*time.Millisecond)})
	d := StartDownload(client, server, 40000, 80, Config{}, 5_000_000, 0)
	eng.Run()
	if !d.Receiver.Done() {
		t.Fatal("transfer did not complete under loss")
	}
	if got := d.Receiver.BytesReceived(); got != 5_000_000 {
		t.Fatalf("received %d bytes, want 5000000", got)
	}
	st := d.Sender().Stats()
	if st.FastRetransmits == 0 {
		t.Fatal("expected at least one fast retransmit at 0.2% loss")
	}
	if st.Timeouts > st.FastRetransmits {
		t.Fatalf("timeouts (%d) dominate fast retransmits (%d)", st.Timeouts, st.FastRetransmits)
	}
}

func TestBufferOverflowTriggersLossAndRecovery(t *testing.T) {
	// Slow start into a 20 Mbps link with a 50 ms buffer must overflow
	// the buffer, detect loss, and still deliver everything.
	q := netem.NewDropTailDepth(20e6, 50*time.Millisecond)
	eng, client, server := testNet(5, netem.LinkConfig{RateBps: 20e6, Delay: 20 * time.Millisecond, Queue: q})
	d := StartDownload(client, server, 40000, 80, Config{}, 10_000_000, 0)
	eng.Run()
	if !d.Receiver.Done() {
		t.Fatal("transfer did not complete")
	}
	if got := d.Receiver.BytesReceived(); got != 10_000_000 {
		t.Fatalf("received %d, want 10000000", got)
	}
	st := d.Sender().Stats()
	if !st.SawLoss {
		t.Fatal("expected buffer-overflow loss during slow start")
	}
	if q.Drops == 0 {
		t.Fatal("expected drop-tail drops")
	}
}

func TestRTOOnBlackout(t *testing.T) {
	// 100% loss after some point: the sender should hit RTOs and back off
	// rather than spin. We emulate by a very lossy link.
	eng, client, server := testNet(6, netem.LinkConfig{RateBps: 10e6, Delay: 5 * time.Millisecond, Loss: 0.9})
	d := StartDownload(client, server, 40000, 80, Config{}, 50_000, 0)
	eng.RunUntil(60 * time.Second)
	st := func() SenderStats {
		if s := d.Sender(); s != nil {
			return s.Stats()
		}
		return SenderStats{}
	}()
	if st.Timeouts == 0 && !d.Receiver.Done() {
		t.Fatalf("expected timeouts under 90%% loss: %+v", st)
	}
}

func TestReceiverWindowLimits(t *testing.T) {
	// A tiny receive window on a long path caps throughput at rwnd/RTT.
	cfg := Config{RcvWindow: 16 * 1460}
	eng, client, server := testNet(7, netem.LinkConfig{RateBps: 1e9, Delay: 50 * time.Millisecond})
	d := StartDownload(client, server, 40000, 80, cfg, 0, 5*time.Second)
	eng.Run()
	bps := d.ThroughputBps()
	// rwnd/RTT = 16*1460*8/0.1s ~ 1.87 Mbps.
	if bps > 2.2e6 {
		t.Fatalf("goodput %.2f Mbps exceeds rwnd/RTT bound ~1.9", bps/1e6)
	}
	st := d.Sender().Stats()
	if st.ReceiverLimited < st.CongestionLimited {
		t.Fatalf("expected receiver-limited dominance: rcv=%v cong=%v", st.ReceiverLimited, st.CongestionLimited)
	}
}

func TestCongestionLimitedAccounting(t *testing.T) {
	q := netem.NewDropTailDepth(10e6, 50*time.Millisecond)
	eng, client, server := testNet(8, netem.LinkConfig{RateBps: 10e6, Delay: 20 * time.Millisecond, Queue: q})
	d := StartDownload(client, server, 40000, 80, Config{}, 0, 5*time.Second)
	eng.Run()
	st := d.Sender().Stats()
	total := st.CongestionLimited + st.ReceiverLimited + st.SenderLimited
	if total == 0 {
		t.Fatal("no limited-state accounting recorded")
	}
	if frac := float64(st.CongestionLimited) / float64(total); frac < 0.9 {
		t.Fatalf("congestion-limited fraction %.2f, want >= 0.9", frac)
	}
}

func TestSlowStartRTTStatsRise(t *testing.T) {
	// Self-induced congestion: slow-start RTT max should exceed min by
	// roughly the buffer depth.
	q := netem.NewDropTailDepth(20e6, 100*time.Millisecond)
	eng, client, server := testNet(9, netem.LinkConfig{RateBps: 20e6, Delay: 20 * time.Millisecond, Queue: q})
	d := StartDownload(client, server, 40000, 80, Config{}, 0, 10*time.Second)
	eng.Run()
	st := d.Sender().Stats()
	if st.SlowStartRTTCount < 10 {
		t.Fatalf("only %d slow-start RTT samples", st.SlowStartRTTCount)
	}
	diff := st.SlowStartRTTMax - st.SlowStartRTTMin
	if diff < 60*time.Millisecond {
		t.Fatalf("slow-start RTT span %v, want >= 60ms (buffer is 100ms)", diff)
	}
	if thr := st.SlowStartThroughputBps(); thr < 10e6 {
		t.Fatalf("slow-start throughput %.1f Mbps, want >= 10", thr/1e6)
	}
}

func TestDelayedAckReducesAckCount(t *testing.T) {
	run := func(ackEvery int) uint64 {
		eng, client, server := testNet(10, netem.LinkConfig{RateBps: 100e6, Delay: 5 * time.Millisecond})
		d := StartDownload(client, server, 40000, 80, Config{AckEvery: ackEvery}, 1_000_000, 0)
		eng.Run()
		return d.Receiver.Stats().AcksSent
	}
	every1 := run(1)
	every2 := run(2)
	if every2 >= every1 {
		t.Fatalf("delayed acks did not reduce ack count: %d vs %d", every2, every1)
	}
}

func TestCubicCompletesAndGrows(t *testing.T) {
	cfg := Config{NewCC: func() CongestionControl { return &Cubic{} }}
	q := netem.NewDropTailDepth(50e6, 100*time.Millisecond)
	eng, client, server := testNet(11, netem.LinkConfig{RateBps: 50e6, Delay: 20 * time.Millisecond, Queue: q})
	d := StartDownload(client, server, 40000, 80, cfg, 0, 10*time.Second)
	eng.Run()
	bps := d.ThroughputBps()
	if bps < 35e6 {
		t.Fatalf("CUBIC goodput %.1f Mbps on 50 Mbps link, want >= 35", bps/1e6)
	}
}

func TestBBRKeepsQueueShort(t *testing.T) {
	// BBR should reach high utilization while leaving the buffer mostly
	// empty compared to Reno, which fills it.
	run := func(newCC func() CongestionControl) (float64, time.Duration) {
		q := netem.NewDropTailDepth(20e6, 200*time.Millisecond)
		eng, client, server := testNet(12, netem.LinkConfig{RateBps: 20e6, Delay: 20 * time.Millisecond, Queue: q})
		d := StartDownload(client, server, 40000, 80, Config{NewCC: newCC}, 0, 10*time.Second)
		s := d.Sender
		// Sample steady-state RTT via the slow-start max stats proxy:
		// use sender SRTT at end.
		eng.Run()
		st := s().Stats()
		span := st.SlowStartRTTMax - st.SlowStartRTTMin
		return d.ThroughputBps(), span
	}
	renoBps, _ := run(nil)
	_ = renoBps
	bbrBps, _ := run(func() CongestionControl { return &BBRLite{} })
	if bbrBps < 10e6 {
		t.Fatalf("BBR goodput %.1f Mbps on 20 Mbps link, want >= 10", bbrBps/1e6)
	}
}

func TestRenoVsTimeoutStateMachine(t *testing.T) {
	r := &Reno{}
	r.Init(sim.NewEngine(1), 1460)
	if !r.InSlowStart() {
		t.Fatal("should start in slow start")
	}
	start := r.Cwnd()
	r.OnAck(1460, time.Millisecond, 14600)
	if r.Cwnd() <= start {
		t.Fatal("cwnd did not grow on ack")
	}
	r.OnLoss(LossFastRetransmit, 100000)
	if r.Ssthresh() != 50000 {
		t.Fatalf("ssthresh = %v, want flight/2 = 50000", r.Ssthresh())
	}
	if r.InSlowStart() {
		t.Fatal("fast retransmit should exit slow start")
	}
	r.OnExitRecovery()
	if r.Cwnd() != r.Ssthresh() {
		t.Fatal("deflation should set cwnd = ssthresh")
	}
	r.OnLoss(LossTimeout, 50000)
	if r.Cwnd() != 1460 {
		t.Fatalf("timeout cwnd = %v, want 1 MSS", r.Cwnd())
	}
}

func TestRenoMinSsthreshFloor(t *testing.T) {
	r := &Reno{}
	r.Init(sim.NewEngine(1), 1000)
	r.OnLoss(LossTimeout, 1000)
	if r.Ssthresh() != 2000 {
		t.Fatalf("ssthresh floor = %v, want 2*MSS", r.Ssthresh())
	}
}

func TestRTOEstimatorRFC6298(t *testing.T) {
	e := NewRTOEstimator()
	if e.RTO() != time.Second {
		t.Fatalf("initial RTO = %v, want 1s", e.RTO())
	}
	e.Sample(100 * time.Millisecond)
	// First sample: SRTT=100ms, RTTVAR=50ms, RTO=300ms.
	if e.RTO() != 300*time.Millisecond {
		t.Fatalf("RTO after first sample = %v, want 300ms", e.RTO())
	}
	for i := 0; i < 50; i++ {
		e.Sample(100 * time.Millisecond)
	}
	// Stable RTT: RTO converges to the 200ms floor.
	if e.RTO() != 200*time.Millisecond {
		t.Fatalf("converged RTO = %v, want 200ms floor", e.RTO())
	}
	e.Backoff()
	if e.RTO() != 400*time.Millisecond {
		t.Fatalf("backoff RTO = %v, want 400ms", e.RTO())
	}
}

func TestSeqArithmeticWrap(t *testing.T) {
	var near uint32 = ^uint32(0) - 10
	if !seqLT(near, near+20) {
		t.Fatal("seqLT fails across wrap")
	}
	if seqGT(near, near+20) {
		t.Fatal("seqGT fails across wrap")
	}
	if seqDiff(near+20, near) != 20 {
		t.Fatalf("seqDiff across wrap = %d", seqDiff(near+20, near))
	}
	if seqMax(near, near+20) != near+20 {
		t.Fatal("seqMax fails across wrap")
	}
	if !seqLEQ(5, 5) || !seqGEQ(5, 5) {
		t.Fatal("equality cases")
	}
}

func TestTwoCompetingFlowsShare(t *testing.T) {
	// Two flows through the same 20 Mbps bottleneck should each get a
	// nontrivial share and jointly approach capacity.
	eng := sim.NewEngine(13)
	net := netem.New(eng)
	c1 := net.NewHost("c1")
	c2 := net.NewHost("c2")
	srv := net.NewHost("srv")
	r := net.NewRouter("r")
	q := netem.NewDropTailDepth(20e6, 100*time.Millisecond)
	net.Connect(srv, r, netem.LinkConfig{RateBps: 20e6, Delay: 10 * time.Millisecond, Queue: q}, netem.LinkConfig{RateBps: 1e9})
	net.Connect(r, c1, netem.LinkConfig{RateBps: 1e9}, netem.LinkConfig{RateBps: 1e9, Delay: 10 * time.Millisecond})
	net.Connect(r, c2, netem.LinkConfig{RateBps: 1e9}, netem.LinkConfig{RateBps: 1e9, Delay: 10 * time.Millisecond})
	net.ComputeRoutes()

	d1 := StartDownload(c1, srv, 40000, 80, Config{}, 0, 10*time.Second)
	d2 := StartDownload(c2, srv, 40000, 81, Config{}, 0, 10*time.Second)
	eng.Run()
	b1, b2 := d1.ThroughputBps(), d2.ThroughputBps()
	if b1+b2 < 14e6 {
		t.Fatalf("aggregate %.1f Mbps, want >= 14", (b1+b2)/1e6)
	}
	if b1 < 2e6 || b2 < 2e6 {
		t.Fatalf("starved flow: %.1f / %.1f Mbps", b1/1e6, b2/1e6)
	}
}

func TestDeterministicTransfers(t *testing.T) {
	run := func() (int64, uint64) {
		eng, client, server := testNet(99, netem.LinkConfig{RateBps: 20e6, Delay: 20 * time.Millisecond, Loss: 0.001, Queue: netem.NewDropTailDepth(20e6, 50*time.Millisecond)})
		d := StartDownload(client, server, 40000, 80, Config{}, 3_000_000, 0)
		eng.Run()
		return d.Receiver.BytesReceived(), d.Sender().Stats().Retransmits
	}
	b1, r1 := run()
	b2, r2 := run()
	if b1 != b2 || r1 != r2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", b1, r1, b2, r2)
	}
}
