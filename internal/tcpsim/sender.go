package tcpsim

import (
	"sort"
	"time"

	"tcpsig/internal/netem"
	"tcpsig/internal/obs"
	"tcpsig/internal/sim"
)

// LimitReason classifies why a sender is not transmitting, mirroring the
// Web100 sender/receiver/congestion-limited accounting NDT reports.
type LimitReason int

// Limit reasons.
const (
	LimitNone LimitReason = iota
	LimitSender
	LimitReceiver
	LimitCongestion
)

// SenderStats aggregates per-connection sender counters.
type SenderStats struct {
	BytesQueued     int64
	BytesSent       int64 // payload bytes of first transmissions
	BytesAcked      int64
	SegmentsSent    uint64
	Retransmits     uint64
	FastRetransmits uint64
	Timeouts        uint64
	TLPProbes       uint64
	ECNReductions   uint64

	EstablishedAt sim.Time
	FirstDataAt   sim.Time
	DoneAt        sim.Time

	// Slow-start summary: state at the first retransmission event (the
	// paper's slow-start boundary).
	FirstLossAt        sim.Time
	SlowStartBytes     int64 // bytes acked when the first loss was detected
	SawLoss            bool
	SlowStartRTTCount  int
	SlowStartRTTMin    time.Duration
	SlowStartRTTMax    time.Duration
	SlowStartRTTSum    time.Duration
	SlowStartRTTSumSq  float64 // seconds^2, for variance
	slowStartRTTsEnded bool

	// Web100-like limited-state accounting.
	SenderLimited     time.Duration
	ReceiverLimited   time.Duration
	CongestionLimited time.Duration
}

// SlowStartThroughputBps returns the goodput achieved up to the first
// retransmission, the quantity the paper thresholds to label flows as
// self-induced. It returns 0 when no loss was seen or slow start was empty.
func (st *SenderStats) SlowStartThroughputBps() float64 {
	if !st.SawLoss || st.FirstLossAt <= st.FirstDataAt {
		return 0
	}
	return float64(st.SlowStartBytes*8) / (st.FirstLossAt - st.FirstDataAt).Seconds()
}

type outSeg struct {
	endSeq    uint32
	sentAt    sim.Time
	delivered int64 // cumulative bytes acked when this segment was sent
	retx      bool
	size      int
}

type senderState int

const (
	stSynReceived senderState = iota
	stEstablished
	stFinSent
	stClosed
)

// Sender is the server-side endpoint of a connection: it owns congestion
// control and retransmission and pushes application bytes to the peer.
type Sender struct {
	eng  *sim.Engine
	host *netem.Host
	flow netem.FlowKey // sender -> receiver direction
	cfg  Config

	cc    CongestionControl
	rto   *RTOEstimator
	timer *sim.Timer

	state      senderState
	iss        uint32
	irs        uint32 // client's initial sequence number
	sndUna     uint32
	sndNxt     uint32
	rwnd       int
	dupAcks    int
	inRecovery bool
	recover    uint32
	ecnRecover uint32 // once-per-window guard for ECE reductions

	// SACK scoreboard (RFC 6675, simplified).
	sacked  []interval // received-above-sndUna ranges, sorted, merged
	highRxt uint32     // retransmission has covered holes below this
	retxOut int64      // retransmitted-and-unacked byte estimate

	// rtoHigh marks the go-back-N horizon after a timeout: data below it
	// is a retransmission for Karn's rule even when sent via trySend.
	rtoHigh uint32

	// tlpArmed marks the retransmission timer as a tail-loss-probe
	// timeout (PTO); tlpFired records that the probe went out and the
	// next firing must be a real RTO.
	tlpArmed bool
	tlpFired bool

	// RACK-style lost-retransmission detection state: when cumulative
	// progress stalls well past an SRTT despite the front hole having
	// been retransmitted, the retransmission itself is presumed lost and
	// resent (real stacks use RACK; without this, a lost retransmission
	// always costs a full RTO).
	lastAdvance   sim.Time
	lastFrontRetx sim.Time

	// Application data: dataEnd is the sequence number one past the last
	// byte the app has queued. unlimited keeps extending it.
	dataEnd   uint32
	unlimited bool
	closed    bool // app promises no more data
	stopAt    sim.Time
	stopDelay time.Duration

	// onEstablished is invoked once the three-way handshake completes.
	onEstablished func(*Sender)

	outstanding []outSeg
	delivered   int64

	pacingNext        sim.Time
	pacingWakePending bool

	limitedSince  sim.Time
	limitedReason LimitReason

	stats  SenderStats
	onDone func(*Sender)
	done   bool

	// Observability: tr/comp record cwnd, state, RTO and RTT events; rttHist
	// aggregates RTT samples across the run's flows. All nil-safe when off.
	tr      *obs.Tracer
	comp    string
	rttHist *obs.Histogram
}

func newSender(eng *sim.Engine, host *netem.Host, flow netem.FlowKey, cfg Config) *Sender {
	s := &Sender{
		eng:  eng,
		host: host,
		flow: flow,
		cfg:  cfg,
		cc:   cfg.NewCC(),
		rto:  NewRTOEstimator(),
		rwnd: cfg.RcvWindow,
		iss:  eng.Rand().Uint32(),
	}
	s.cc.Init(eng, cfg.MSS)
	s.timer = sim.NewTimer(eng, s.onRTO)
	s.sndUna = s.iss
	s.sndNxt = s.iss
	s.rtoHigh = s.iss
	s.recover = s.iss
	s.ecnRecover = s.iss
	s.dataEnd = s.iss + 1 // +1 for the SYN
	s.stats.SlowStartRTTMin = time.Duration(1<<62 - 1)
	if snk := obs.FromEngine(eng); snk != nil {
		s.tr = snk.T()
		if s.tr != nil {
			s.comp = "flow " + flow.String()
		}
		s.rttHist = snk.M().Histogram("tcpsim.rtt_ms", obs.LinearBuckets(5, 5, 60))
	}
	return s
}

// traceCwnd records the congestion window after a CC update; ssthresh is
// reported as -1 while still "infinite" (initial MaxFloat64), because an
// out-of-range float-to-int conversion is implementation-defined.
func (s *Sender) traceCwnd() {
	if s.tr == nil {
		return
	}
	ssB := int64(-1)
	if ss := s.cc.Ssthresh(); ss < 1e15 {
		ssB = int64(ss)
	}
	s.tr.Cwnd(s.eng.Now(), s.comp, int64(s.cc.Cwnd()), ssB)
}

// Stats returns a snapshot of the sender counters.
func (s *Sender) Stats() SenderStats { return s.stats }

// CC returns the connection's congestion controller (read-only use).
func (s *Sender) CC() CongestionControl { return s.cc }

// InSlowStart reports whether the congestion controller is still in its
// exponential-growth phase.
func (s *Sender) InSlowStart() bool { return s.cc.InSlowStart() }

// Flow returns the sender->receiver flow key.
func (s *Sender) Flow() netem.FlowKey { return s.flow }

// Done reports whether the connection has finished (FIN acknowledged).
func (s *Sender) Done() bool { return s.done }

// OnDone registers a completion callback.
func (s *Sender) OnDone(fn func(*Sender)) { s.onDone = fn }

// Send queues n application bytes for transmission.
func (s *Sender) Send(n int64) {
	if s.closed {
		panic("tcpsim: Send after Close")
	}
	s.dataEnd += uint32(n)
	s.stats.BytesQueued += n
	s.trySend()
}

// SendFor streams data continuously for d after establishment, then closes.
// This models a netperf/NDT fixed-duration throughput test.
func (s *Sender) SendFor(d time.Duration) {
	if s.closed {
		panic("tcpsim: SendFor after Close")
	}
	s.unlimited = true
	if s.state == stEstablished {
		s.armStop(d)
	} else {
		s.stopAt = -1 // marker: arm on establish
		s.stopDelay = d
	}
	s.trySend()
}

// Close indicates the application will send no more data; a FIN follows the
// queued bytes.
func (s *Sender) Close() {
	s.closed = true
	s.unlimited = false
	s.trySend()
}

func (s *Sender) armStop(d time.Duration) {
	s.eng.Schedule(d, func() {
		if !s.done && s.unlimited {
			s.unlimited = false
			// Truncate the stream at what has been sent so far.
			if seqGT(s.dataEnd, s.sndNxt) {
				s.dataEnd = s.sndNxt
			}
			s.closed = true
			s.trySend()
		}
	})
}

// onSyn processes the client's SYN: reply with SYN-ACK.
func (s *Sender) onSyn(p *netem.Packet) {
	s.irs = p.Seg.Seq
	s.sendPacket(s.iss, p.Seg.Seq+1, netem.FlagSYN|netem.FlagACK, 0, false)
	if s.sndNxt == s.iss {
		s.sndNxt = s.iss + 1
	}
	s.timer.Reset(s.rto.RTO())
}

// Input processes an arriving packet (ACKs from the receiver).
func (s *Sender) Input(p *netem.Packet) {
	if s.processInput(p) {
		s.trySend()
	}
}

// InputBatch processes a burst of packets that arrived at the same virtual
// instant in one pass: per-ACK bookkeeping runs for each packet, but the
// send attempt — a walk over windows, scoreboard and pacing — runs once for
// the whole burst. For a burst of one this is exactly Input.
func (s *Sender) InputBatch(ps []*netem.Packet) {
	pending := false
	for _, p := range ps {
		// Deferring the send attempt is only transparent for a plain
		// cumulative ACK outside recovery: anything else can observe the
		// un-refilled pipe (Cubic clamps W_max to the in-flight estimate
		// on loss, so a duplicate ACK or ECN-Echo processed over a drained
		// pipe collapses the window far harder than sequential processing
		// would) or change the repair schedule (SACK merges and recovery
		// retransmissions interleave with sends). Flush before those;
		// clean cumulative-ACK runs — the hot path — stay batched.
		deferrable := !p.ECE && len(p.Seg.Sack) == 0 &&
			p.Seg.Flags&(netem.FlagSYN|netem.FlagFIN) == 0 &&
			p.Seg.Flags&netem.FlagACK != 0 &&
			seqGT(p.Seg.Ack, s.sndUna) &&
			!s.inRecovery && !s.inLossRecovery()
		if pending && !deferrable {
			s.trySend()
			pending = false
		}
		if s.processInput(p) {
			pending = true
		}
	}
	if pending {
		s.trySend()
	}
}

// processInput is Input minus the trailing send attempt; it reports whether
// the caller owes a trySend.
func (s *Sender) processInput(p *netem.Packet) bool {
	if p.Seg.Flags&netem.FlagSYN != 0 {
		s.onSyn(p)
		return false
	}
	if p.Seg.Flags&netem.FlagACK == 0 {
		return false
	}
	ack := p.Seg.Ack
	s.rwnd = int(p.Seg.Window)

	if s.state == stSynReceived {
		if seqGEQ(ack, s.iss+1) {
			s.state = stEstablished
			s.stats.EstablishedAt = s.eng.Now()
			s.tr.State(s.eng.Now(), s.comp, "established")
			s.traceCwnd()
			s.sndUna = s.iss + 1
			s.timer.Stop()
			if s.stopAt == -1 {
				s.armStop(s.stopDelay)
				s.stopAt = 0
			}
			if s.onEstablished != nil {
				s.onEstablished(s)
			}
			s.trySend()
		}
		return false
	}

	if !s.cfg.DisableSACK && len(p.Seg.Sack) > 0 {
		for _, b := range p.Seg.Sack {
			s.mergeSack(b.Start, b.End)
		}
	}

	if p.ECE && !s.inRecovery && seqGT(s.sndUna, s.ecnRecover) {
		// ECN-Echo: reduce the window once per window of data
		// (RFC 3168 §6.1.2); nothing needs retransmitting, and loss
		// detection for the same window keeps working.
		s.ecnRecover = s.sndNxt
		s.stats.ECNReductions++
		s.noteCwndOnlyLoss()
		s.cc.OnLoss(LossECN, s.pipeBytes())
		s.traceCwnd()
	}

	switch {
	case seqGT(ack, s.sndUna):
		s.onNewAck(ack)
	case ack == s.sndUna && s.bytesInFlight() > 0 && p.Seg.PayloadLen == 0:
		s.onDupAck()
	}
	return true
}

// mergeSack inserts [start, end) into the sorted, merged scoreboard in
// place, discarding anything at or below sndUna. The steady state touches
// only existing storage: extending or coalescing runs shrinks the slice,
// and a true insertion shifts within capacity once the scoreboard has
// grown to its working size.
func (s *Sender) mergeSack(start, end uint32) {
	if seqLEQ(end, s.sndUna) || seqGEQ(start, end) {
		return
	}
	if seqLT(start, s.sndUna) {
		start = s.sndUna
	}
	sk := s.sacked
	// i = first interval not entirely below [start, end); j = first
	// interval entirely above it. [i, j) overlaps or touches the new
	// range and collapses into one interval.
	i := 0
	for i < len(sk) && seqLT(sk[i].end, start) {
		i++
	}
	j := i
	for j < len(sk) && seqLEQ(sk[j].start, end) {
		if seqLT(sk[j].start, start) {
			start = sk[j].start
		}
		if seqGT(sk[j].end, end) {
			end = sk[j].end
		}
		j++
	}
	if i == j {
		// No overlap: open a slot at i.
		sk = append(sk, interval{})
		copy(sk[i+1:], sk[i:])
		sk[i] = interval{start, end}
	} else {
		sk[i] = interval{start, end}
		sk = append(sk[:i+1], sk[j:]...)
	}
	s.sacked = sk
}

// sackedBytes returns how many in-flight bytes the scoreboard marks received.
func (s *Sender) sackedBytes() int64 {
	var n int64
	for _, iv := range s.sacked {
		n += seqDiff(iv.end, iv.start)
	}
	return n
}

// lostBytes estimates how many in-flight bytes are lost per the RFC 6675
// IsLost heuristic: unsacked ranges with at least DupThresh (3) segments
// worth of SACKed data above them.
func (s *Sender) lostBytes() int64 {
	if len(s.sacked) == 0 {
		return 0
	}
	highest := s.sacked[len(s.sacked)-1].end
	limit := highest - uint32(3*s.cfg.MSS)
	if seqLEQ(limit, s.sndUna) {
		return 0
	}
	var lost int64
	prev := s.sndUna
	for _, iv := range s.sacked {
		start := iv.start
		if seqGT(start, limit) {
			start = limit
		}
		if seqGT(start, prev) {
			lost += seqDiff(start, prev)
		}
		if seqGT(iv.end, prev) {
			prev = iv.end
		}
		if seqGEQ(prev, limit) {
			break
		}
	}
	if seqLT(prev, limit) {
		lost += seqDiff(limit, prev)
	}
	return lost
}

// pipeBytes estimates the bytes actually in the network (RFC 6675 "pipe"):
// in-flight minus SACKed minus presumed-lost, plus retransmitted copies.
// Excluding lost bytes is what lets recovery drain an overflowed buffer
// instead of stalling on an inflated estimate.
func (s *Sender) pipeBytes() int {
	fl := int64(s.bytesInFlight())
	if s.cfg.DisableSACK {
		return int(fl)
	}
	// retxOut is an estimate that can over-count when the same range is
	// retransmitted repeatedly (probes, RACK resends); there can never be
	// more retransmitted-and-unacked bytes than unacked bytes.
	retx := s.retxOut
	if retx > fl {
		retx = fl
		s.retxOut = fl
	}
	p := fl - s.sackedBytes() - s.lostBytes() + retx
	if p < 0 {
		p = 0
	}
	return int(p)
}

// inLossRecovery reports whether the sender is repairing a timeout's loss
// window (the RFC 6582 / Linux CA_Loss state).
func (s *Sender) inLossRecovery() bool { return seqLT(s.sndUna, s.rtoHigh) }

// recoveryHole finds the next sequence range to retransmit: the first
// unsacked hole at or after max(sndUna, highRxt), below the repair horizon
// (the highest SACKed byte in fast recovery, extended to the pre-timeout
// send horizon in loss recovery).
func (s *Sender) recoveryHole() (uint32, int, bool) {
	if s.cfg.DisableSACK || (!s.inRecovery && !s.inLossRecovery()) {
		return 0, 0, false
	}
	var horizon uint32
	have := false
	if len(s.sacked) > 0 {
		horizon = s.sacked[len(s.sacked)-1].end
		have = true
	}
	if s.inLossRecovery() && (!have || seqGT(s.rtoHigh, horizon)) {
		horizon = s.rtoHigh
		have = true
	}
	if !have {
		return 0, 0, false
	}
	start := s.sndUna
	if seqGT(s.highRxt, start) {
		start = s.highRxt
	}
	size := s.cfg.MSS
	for _, iv := range s.sacked {
		if seqGEQ(start, iv.start) && seqLT(start, iv.end) {
			start = iv.end
		}
	}
	if seqGEQ(start, horizon) {
		return 0, 0, false
	}
	for _, iv := range s.sacked {
		if seqGT(iv.start, start) {
			if gap := seqDiff(iv.start, start); int64(size) > gap {
				size = int(gap)
			}
			break
		}
	}
	if rem := seqDiff(s.dataEnd, start); int64(size) > rem {
		size = int(rem)
	}
	if size <= 0 {
		return 0, 0, false
	}
	return start, size, true
}

var _ CongestionControl = (*Reno)(nil)

// onNewAck handles cumulative progress: RTT sampling, scoreboard trim,
// congestion-control updates, and recovery exit.
func (s *Sender) onNewAck(ack uint32) {
	newly := seqDiff(ack, s.sndUna)
	if newly < 0 {
		return
	}
	s.lastAdvance = s.eng.Now()
	// Cumulative progress clears exponential RTO backoff (as Linux does),
	// so a post-timeout stall is re-probed promptly.
	s.rto.ResetBackoff()
	flightBefore := s.bytesInFlight()
	s.delivered += newly
	s.stats.BytesAcked = s.delivered

	// Pop acknowledged segments; take an RTT sample from the newest
	// fully-acked, never-retransmitted segment (Karn's rule).
	var rtt time.Duration
	var rateSample float64
	i := 0
	for ; i < len(s.outstanding) && seqLEQ(s.outstanding[i].endSeq, ack); i++ {
		seg := s.outstanding[i]
		if !seg.retx {
			rtt = s.eng.Now() - seg.sentAt
			elapsed := (s.eng.Now() - seg.sentAt).Seconds()
			if elapsed > 0 {
				rateSample = float64(s.delivered-seg.delivered) / elapsed
			}
		}
	}
	s.outstanding = s.outstanding[i:]

	if rtt > 0 {
		s.rto.Sample(rtt)
		s.recordSlowStartRTT(rtt)
		s.tr.RTT(s.eng.Now(), s.comp, rtt)
		s.rttHist.Observe(rtt.Seconds() * 1e3)
	}
	if rateSample > 0 {
		s.cc.DeliveryRateSample(rateSample, rtt)
	}

	s.sndUna = ack
	if seqGT(ack, s.sndNxt) {
		// The receiver had this data buffered from before a go-back-N
		// timeout; skip ahead.
		s.sndNxt = ack
	}

	// Trim the scoreboard below the new cumulative ACK and decay the
	// retransmission-outstanding estimate. The copy-down keeps the front
	// capacity so mergeSack re-inserts without growing.
	k := 0
	for k < len(s.sacked) && seqLEQ(s.sacked[k].end, ack) {
		k++
	}
	if k > 0 {
		s.sacked = s.sacked[:copy(s.sacked, s.sacked[k:])]
	}
	if len(s.sacked) > 0 && seqLT(s.sacked[0].start, ack) {
		s.sacked[0].start = ack
	}
	s.retxOut -= newly
	if s.retxOut < 0 {
		s.retxOut = 0
	}

	if s.inRecovery {
		if seqGEQ(ack, s.recover) {
			s.inRecovery = false
			s.dupAcks = 0
			s.retxOut = 0
			s.cc.OnExitRecovery()
			s.tr.State(s.eng.Now(), s.comp, "recovery-exit")
			s.traceCwnd()
		} else if s.cfg.DisableSACK {
			// Partial ACK: the next hole is lost too (RFC 6582).
			// With SACK, trySend's hole repair covers this.
			s.retransmitFront()
		}
	} else {
		s.dupAcks = 0
		s.cc.OnAck(int(newly), rtt, flightBefore)
		s.traceCwnd()
	}

	s.tlpFired = false
	if s.bytesInFlight() > 0 {
		s.armRetransmitTimer()
	} else {
		s.timer.Stop()
	}
	s.maybeFinish(ack)
}

// armRetransmitTimer arms either a tail-loss probe (RFC 8985-style PTO of
// roughly 2*SRTT) or the full RTO when a probe has already been spent.
func (s *Sender) armRetransmitTimer() {
	rto := s.rto.RTO()
	if s.cfg.DisableTLP || s.tlpFired || s.inRecovery {
		s.tlpArmed = false
		s.timer.Reset(rto)
		return
	}
	srtt := s.rto.SRTT()
	if srtt == 0 {
		s.tlpArmed = false
		s.timer.Reset(rto)
		return
	}
	// Like Linux, the first firing after new data is always a probe:
	// PTO = min(2*SRTT + delta, RTO).
	pto := 2*srtt + 10*time.Millisecond
	if pto > rto {
		pto = rto
	}
	s.tlpArmed = true
	s.timer.Reset(pto)
}

// sendTLPProbe retransmits the highest outstanding segment so the receiver
// generates SACK feedback that converts a tail loss into fast recovery
// instead of a timeout.
func (s *Sender) sendTLPProbe() {
	s.tlpArmed = false
	s.tlpFired = true
	s.stats.TLPProbes++
	s.tr.RTO(s.eng.Now(), s.comp, "tlp")
	if s.state == stFinSent {
		// Tail is the FIN.
		s.noteLoss()
		s.sendPacket(s.dataEnd, 0, netem.FlagFIN|netem.FlagACK, 0, true)
	} else {
		size := s.cfg.MSS
		if fl := s.bytesInFlight(); fl < size {
			size = fl
		}
		if size > 0 {
			start := s.sndNxt - uint32(size)
			s.retransmitRange(start, size)
		}
	}
	s.timer.Reset(s.rto.RTO())
}

// rackCheck resends the front hole when its retransmission is presumed lost:
// no cumulative progress for ~1.5 SRTT despite an earlier front retransmit.
func (s *Sender) rackCheck() {
	// Active in fast recovery and in post-timeout loss recovery (the
	// window below rtoHigh), where new dup ACKs cannot re-trigger fast
	// retransmit but the front hole may still be re-lost.
	if (!s.inRecovery && !seqLT(s.sndUna, s.rtoHigh)) || s.cfg.DisableSACK {
		return
	}
	srtt := s.rto.SRTT()
	if srtt == 0 {
		return
	}
	thresh := srtt + srtt/2 + 10*time.Millisecond
	now := s.eng.Now()
	if now-s.lastAdvance < thresh || now-s.lastFrontRetx < thresh {
		return
	}
	s.retransmitFront()
}

// onDupAck counts duplicate ACKs toward fast retransmit.
func (s *Sender) onDupAck() {
	s.dupAcks++
	if s.inRecovery {
		if s.cfg.DisableSACK {
			s.cc.OnDupAck()
		} else {
			s.rackCheck()
		}
		return
	}
	// RFC 6582 §4.1: do not re-enter fast recovery for duplicate ACKs
	// that belong to an earlier loss window (sndUna has not yet passed
	// the previous recovery point). Without this guard, the duplicate
	// ACKs elicited by go-back-N resends after a timeout would halve
	// ssthresh over and over.
	if seqLEQ(s.sndUna, s.recover) {
		s.rackCheck()
		return
	}
	if s.dupAcks == 3 || (s.tlpFired && s.dupAcks >= 1 && len(s.sacked) > 0) {
		s.enterRecovery()
	}
}

func (s *Sender) enterRecovery() {
	s.inRecovery = true
	s.recover = s.sndNxt
	s.highRxt = s.sndUna
	s.retxOut = 0
	s.noteLoss()
	s.stats.FastRetransmits++
	s.cc.OnLoss(LossFastRetransmit, s.pipeBytes())
	s.tr.State(s.eng.Now(), s.comp, "recovery")
	s.traceCwnd()
	if s.cfg.DisableSACK || len(s.sacked) == 0 {
		s.retransmitFront()
	} else {
		// Retransmit the first hole unconditionally; further holes
		// drain through trySend's pipe-paced repair.
		if start, size, ok := s.recoveryHole(); ok {
			s.retransmitRange(start, size)
			s.highRxt = start + uint32(size)
		} else {
			s.retransmitFront()
		}
	}
}

func (s *Sender) onRTO() {
	if s.done {
		return
	}
	if s.state == stSynReceived {
		// Re-send SYN-ACK.
		s.sendPacket(s.iss, s.irs+1, netem.FlagSYN|netem.FlagACK, 0, true)
		s.rto.Backoff()
		s.timer.Reset(s.rto.RTO())
		return
	}
	if s.tlpArmed {
		s.sendTLPProbe()
		return
	}
	s.stats.Timeouts++
	s.noteLoss()
	s.tr.RTO(s.eng.Now(), s.comp, "rto")
	s.cc.OnLoss(LossTimeout, s.pipeBytes())
	s.tr.State(s.eng.Now(), s.comp, "loss-recovery")
	s.traceCwnd()
	s.rto.Backoff()
	s.inRecovery = false
	s.dupAcks = 0
	s.retxOut = 0
	s.highRxt = s.sndUna
	s.rtoHigh = seqMax(s.rtoHigh, s.sndNxt)
	// Dup ACKs for data below the pre-timeout horizon must not trigger
	// fast retransmit (RFC 5681 §3.2 / RFC 6582); repair runs in loss
	// recovery via the scoreboard instead.
	s.recover = seqMax(s.recover, s.sndNxt)
	if s.cfg.DisableSACK {
		// Without a scoreboard, fall back to go-back-N: resend
		// everything from snd_una under slow start.
		s.outstanding = s.outstanding[:0]
		if s.state == stFinSent {
			s.state = stEstablished // FIN will be re-queued by trySend
		}
		s.sndNxt = s.sndUna
	} else {
		// Keep SACK state (Linux CA_Loss does too) and retransmit the
		// front immediately; the rest of the loss window drains through
		// trySend's hole repair, paced by the collapsed cwnd.
		s.retransmitFront()
	}
	s.timer.Reset(s.rto.RTO())
	s.trySend()
}

// noteCwndOnlyLoss records a congestion event that involves no
// retransmission (ECN). The sender's slow-start accounting ends here, but
// note that a packet trace shows no retransmission, so trace-based analysis
// (the paper's §3.2 boundary) keeps attributing samples to slow start — the
// ECN ablation quantifies that confound.
func (s *Sender) noteCwndOnlyLoss() { s.noteLoss() }

// noteLoss captures slow-start summary state at the first loss event.
func (s *Sender) noteLoss() {
	if s.stats.SawLoss {
		return
	}
	s.stats.SawLoss = true
	s.stats.FirstLossAt = s.eng.Now()
	s.stats.SlowStartBytes = s.delivered
	s.stats.slowStartRTTsEnded = true
}

func (s *Sender) recordSlowStartRTT(rtt time.Duration) {
	if s.stats.slowStartRTTsEnded {
		return
	}
	st := &s.stats
	st.SlowStartRTTCount++
	st.SlowStartRTTSum += rtt
	sec := rtt.Seconds()
	st.SlowStartRTTSumSq += sec * sec
	if rtt < st.SlowStartRTTMin {
		st.SlowStartRTTMin = rtt
	}
	if rtt > st.SlowStartRTTMax {
		st.SlowStartRTTMax = rtt
	}
}

// bytesInFlight is the unacknowledged sequence range.
func (s *Sender) bytesInFlight() int {
	fl := seqDiff(s.sndNxt, s.sndUna)
	if fl < 0 {
		return 0
	}
	return int(fl)
}

// retransmitFront re-sends the earliest unacknowledged segment.
func (s *Sender) retransmitFront() {
	seq := s.sndUna
	if s.state == stFinSent && seq == s.dataEnd {
		// Retransmit FIN.
		s.stats.Retransmits++
		s.sendPacket(seq, 0, netem.FlagFIN|netem.FlagACK, 0, true)
		return
	}
	remaining := seqDiff(s.dataEnd, seq)
	if remaining <= 0 {
		return
	}
	size := s.cfg.MSS
	if int64(size) > remaining {
		size = int(remaining)
	}
	s.retransmitRange(seq, size)
}

// retransmitRange re-sends [seq, seq+size) and marks overlapping original
// transmissions as retransmitted so Karn's rule skips their RTT samples.
func (s *Sender) retransmitRange(seq uint32, size int) {
	s.noteLoss() // any retransmission ends the slow-start window
	if seq == s.sndUna {
		s.lastFrontRetx = s.eng.Now()
	}
	s.stats.Retransmits++
	s.retxOut += int64(size)
	end := seq + uint32(size)
	idx := sort.Search(len(s.outstanding), func(i int) bool {
		return seqGEQ(s.outstanding[i].endSeq, seq+1)
	})
	for j := idx; j < len(s.outstanding) && seqLEQ(s.outstanding[j].endSeq, end); j++ {
		s.outstanding[j].retx = true
	}
	s.sendPacket(seq, 0, netem.FlagACK, size, true)
	if !s.timer.Armed() {
		s.timer.Reset(s.rto.RTO())
	}
}

// trySend transmits as much as the windows (and pacing) allow, repairing
// scoreboard holes before sending new data (RFC 6675 NextSeg order).
func (s *Sender) trySend() {
	if s.state != stEstablished && s.state != stFinSent || s.done {
		return
	}
	s.accumulateLimited()
	for {
		if s.unlimited {
			// Keep at least a window's worth of data queued.
			target := s.sndNxt + uint32(s.cfg.MSS*64)
			if seqGT(target, s.dataEnd) {
				s.stats.BytesQueued += seqDiff(target, s.dataEnd)
				s.dataEnd = target
			}
		}
		// Pick the next segment: a recovery hole first, else new data.
		seq, size, isHole := s.recoveryHole()
		if !isHole {
			avail := seqDiff(s.dataEnd, s.sndNxt)
			if avail <= 0 {
				break
			}
			seq = s.sndNxt
			size = s.cfg.MSS
			if int64(size) > avail {
				size = int(avail)
			}
		}

		wnd := int(s.cc.Cwnd())
		if s.rwnd < wnd {
			wnd = s.rwnd
		}
		if s.pipeBytes()+size > wnd {
			break
		}
		// Never send beyond the advertised window in sequence space.
		if !isHole && seqDiff(seq+uint32(size), s.sndUna) > int64(s.rwnd) {
			break
		}
		// Pacing.
		if rate := s.cc.PacingRate(); rate > 0 {
			now := s.eng.Now()
			if s.pacingNext > now {
				if !s.pacingWakePending {
					s.pacingWakePending = true
					s.eng.At(s.pacingNext, func() {
						s.pacingWakePending = false
						s.trySend()
					})
				}
				break
			}
			gap := time.Duration(float64(size+netem.HeaderBytes) / rate * float64(time.Second))
			if s.pacingNext < now {
				s.pacingNext = now
			}
			s.pacingNext += gap
		}

		if isHole {
			s.retransmitRange(seq, size)
			s.highRxt = seq + uint32(size)
			continue
		}

		if s.stats.FirstDataAt == 0 && s.stats.BytesSent == 0 {
			s.stats.FirstDataAt = s.eng.Now()
		}
		isRetx := seqLT(s.sndNxt, s.rtoHigh)
		s.outstanding = append(s.outstanding, outSeg{
			endSeq:    s.sndNxt + uint32(size),
			sentAt:    s.eng.Now(),
			delivered: s.delivered,
			size:      size,
			retx:      isRetx,
		})
		s.sendPacket(s.sndNxt, 0, netem.FlagACK, size, isRetx)
		s.sndNxt += uint32(size)
		if isRetx {
			// Note: no retxOut adjustment here — this copy advances
			// sndNxt, so it is already counted in bytesInFlight.
			s.stats.Retransmits++
		} else {
			s.stats.BytesSent += int64(size)
		}
		if !s.timer.Armed() {
			s.armRetransmitTimer()
		}
	}
	// FIN when the app is done and everything queued has been sent.
	if s.closed && s.state == stEstablished && s.sndNxt == s.dataEnd {
		s.state = stFinSent
		s.tr.State(s.eng.Now(), s.comp, "fin-sent")
		s.sendPacket(s.sndNxt, 0, netem.FlagFIN|netem.FlagACK, 0, false)
		s.sndNxt++
		if !s.timer.Armed() {
			s.armRetransmitTimer()
		}
	}
	s.beginLimited()
}

// maybeFinish completes the connection once the FIN is acknowledged.
func (s *Sender) maybeFinish(ack uint32) {
	if s.state == stFinSent && seqGEQ(ack, s.sndNxt) && !s.done {
		s.done = true
		s.state = stClosed
		s.tr.State(s.eng.Now(), s.comp, "closed")
		s.stats.DoneAt = s.eng.Now()
		s.accumulateLimited()
		s.timer.Stop()
		if s.onDone != nil {
			s.onDone(s)
		}
	}
}

func (s *Sender) currentLimit() LimitReason {
	if s.done {
		return LimitNone
	}
	avail := seqDiff(s.dataEnd, s.sndNxt)
	if avail <= 0 && !s.unlimited {
		return LimitSender
	}
	if s.rwnd < int(s.cc.Cwnd()) {
		return LimitReceiver
	}
	return LimitCongestion
}

func (s *Sender) accumulateLimited() {
	if s.limitedReason == LimitNone {
		return
	}
	d := s.eng.Now() - s.limitedSince
	switch s.limitedReason {
	case LimitSender:
		s.stats.SenderLimited += d
	case LimitReceiver:
		s.stats.ReceiverLimited += d
	case LimitCongestion:
		s.stats.CongestionLimited += d
	}
	s.limitedReason = LimitNone
}

func (s *Sender) beginLimited() {
	if s.done {
		return
	}
	s.limitedReason = s.currentLimit()
	s.limitedSince = s.eng.Now()
}

// sendPacket builds and transmits one segment.
func (s *Sender) sendPacket(seq, ack uint32, flags uint8, payload int, retx bool) {
	if flags&netem.FlagACK != 0 && ack == 0 {
		ack = s.irs + 1
	}
	p := s.host.NewPacket()
	p.Flow = s.flow
	p.Seg.Seq = seq
	p.Seg.Ack = ack
	p.Seg.Flags = flags
	p.Seg.Window = uint32(s.cfg.RcvWindow)
	p.Seg.PayloadLen = payload
	p.Size = payload + netem.HeaderBytes
	p.Retransmit = retx
	s.stats.SegmentsSent++
	s.host.Send(p)
}
