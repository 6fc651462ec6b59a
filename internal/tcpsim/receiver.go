package tcpsim

import (
	"time"

	"tcpsig/internal/netem"
	"tcpsig/internal/sim"
)

// delAckTimeout bounds how long an ACK may be delayed.
const delAckTimeout = 40 * time.Millisecond

// ReceiverStats aggregates client-side counters.
type ReceiverStats struct {
	BytesReceived    int64
	SegmentsReceived uint64
	DupSegments      uint64 // already-received data (spurious retransmits)
	OutOfOrder       uint64
	AcksSent         uint64
	EstablishedAt    sim.Time
	FinishedAt       sim.Time
}

type interval struct{ start, end uint32 }

// Receiver is the client-side endpoint: it connects to a Listener, consumes
// the byte stream and generates (optionally delayed) acknowledgments.
type Receiver struct {
	eng  *sim.Engine
	host *netem.Host
	flow netem.FlowKey // receiver -> sender direction
	cfg  Config

	isn         uint32
	irs         uint32
	rcvNxt      uint32
	established bool
	finSeq      uint32
	sawFin      bool
	done        bool

	ooo        []interval // buffered out-of-order ranges, sorted
	recentOOO  uint32     // start of the most recently grown ooo range
	haveRecent bool
	sackCursor int  // rotation cursor for advertising older blocks
	eceEcho    bool // a CE-marked segment awaits its ECN echo
	unackedSeg int  // in-order segments since last ACK
	delack     *sim.Timer
	synTimer   *sim.Timer

	stats      ReceiverStats
	onComplete func(*Receiver)
}

// NewReceiver creates a client endpoint bound to localPort on host.
func NewReceiver(host *netem.Host, localPort netem.Port, cfg Config) *Receiver {
	panicOnNil(host)
	r := &Receiver{
		eng:  host.Engine(),
		host: host,
		cfg:  cfg.withDefaults(),
	}
	r.flow.SrcAddr = host.Addr()
	r.flow.SrcPort = localPort
	r.delack = sim.NewTimer(r.eng, r.sendAck)
	r.synTimer = sim.NewTimer(r.eng, r.resendSyn)
	host.Bind(localPort, r)
	return r
}

func panicOnNil(h *netem.Host) {
	if h == nil {
		panic("tcpsim: nil host")
	}
}

// Stats returns a snapshot of the receiver counters.
func (r *Receiver) Stats() ReceiverStats { return r.stats }

// BytesReceived returns the in-order payload bytes delivered so far.
func (r *Receiver) BytesReceived() int64 { return r.stats.BytesReceived }

// Done reports whether the sender's FIN has been consumed.
func (r *Receiver) Done() bool { return r.done }

// OnComplete registers a callback invoked when the transfer finishes.
func (r *Receiver) OnComplete(fn func(*Receiver)) { r.onComplete = fn }

// Connect starts the three-way handshake toward the server.
func (r *Receiver) Connect(server netem.Addr, port netem.Port) {
	r.flow.DstAddr = server
	r.flow.DstPort = port
	r.isn = r.eng.Rand().Uint32()
	r.sendSyn()
}

func (r *Receiver) sendSyn() {
	p := r.host.NewPacket()
	p.Flow = r.flow
	p.Seg.Seq = r.isn
	p.Seg.Flags = netem.FlagSYN
	p.Seg.Window = uint32(r.cfg.RcvWindow)
	p.Size = netem.HeaderBytes
	r.host.Send(p)
	r.synTimer.Reset(time3s)
}

const time3s = 3e9 // SYN retransmission interval

func (r *Receiver) resendSyn() {
	if !r.established {
		r.sendSyn()
	}
}

// Input implements netem.Receiver.
func (r *Receiver) Input(p *netem.Packet) {
	seg := &p.Seg
	if !r.established {
		if seg.Flags&netem.FlagSYN != 0 && seg.Flags&netem.FlagACK != 0 {
			r.irs = seg.Seq
			r.rcvNxt = seg.Seq + 1
			r.established = true
			r.stats.EstablishedAt = r.eng.Now()
			r.synTimer.Stop()
			r.sendAck()
		}
		return
	}
	r.stats.SegmentsReceived++

	if seg.Flags&netem.FlagSYN != 0 {
		// Duplicate SYN-ACK: our handshake ACK was lost. Re-ACK so the
		// server can leave SYN-RECEIVED.
		r.sendAck()
		return
	}
	if p.ECE {
		// Congestion Experienced on the data path: echo it back
		// (RFC 3168 ECN-Echo) on the next acknowledgment.
		r.eceEcho = true
	}

	if r.done {
		// Retransmitted FIN or stray data after completion: re-ACK.
		r.sendAck()
		return
	}

	if seg.Flags&netem.FlagFIN != 0 {
		r.sawFin = true
		r.finSeq = seg.Seq + uint32(seg.PayloadLen)
	}

	switch {
	case seg.PayloadLen == 0 && seg.Flags&netem.FlagFIN == 0:
		// Pure ACK from the sender side; nothing to consume.
		return
	case seqLEQ(seg.Seq+uint32(seg.PayloadLen), r.rcvNxt) && seg.Flags&netem.FlagFIN == 0:
		// Entirely old data: spurious retransmission.
		r.stats.DupSegments++
		r.sendAck()
		return
	case seqGT(seg.Seq, r.rcvNxt):
		// Out of order: buffer and send an immediate duplicate ACK.
		r.stats.OutOfOrder++
		r.bufferOOO(seg.Seq, seg.Seq+uint32(seg.PayloadLen))
		r.sendAck()
		return
	}

	// In-order (possibly partially overlapping) data.
	end := seg.Seq + uint32(seg.PayloadLen)
	if seqGT(end, r.rcvNxt) {
		r.stats.BytesReceived += seqDiff(end, r.rcvNxt)
		r.rcvNxt = end
	}
	r.drainOOO()

	if r.sawFin && r.rcvNxt == r.finSeq {
		r.rcvNxt++ // consume the FIN
		r.finish()
		return
	}

	// Delayed ACK policy.
	r.unackedSeg++
	if r.unackedSeg >= r.cfg.AckEvery || len(r.ooo) > 0 {
		r.sendAck()
	} else if !r.delack.Armed() {
		r.delack.Reset(delAckTimeout)
	}
}

func (r *Receiver) finish() {
	r.sendAck()
	if !r.done {
		r.done = true
		r.stats.FinishedAt = r.eng.Now()
		if r.onComplete != nil {
			r.onComplete(r)
		}
	}
}

func (r *Receiver) bufferOOO(start, end uint32) {
	if start == end {
		return
	}
	// Insert and merge in place (same scheme as Sender.mergeSack):
	// [i, j) is the run of buffered ranges overlapping or touching the
	// new one, which collapses into a single range.
	oo := r.ooo
	i := 0
	for i < len(oo) && seqLT(oo[i].end, start) {
		i++
	}
	j := i
	for j < len(oo) && seqLEQ(oo[j].start, end) {
		if seqLT(oo[j].start, start) {
			start = oo[j].start
		}
		if seqGT(oo[j].end, end) {
			end = oo[j].end
		}
		j++
	}
	if i == j {
		oo = append(oo, interval{})
		copy(oo[i+1:], oo[i:])
		oo[i] = interval{start, end}
	} else {
		oo[i] = interval{start, end}
		oo = append(oo[:i+1], oo[j:]...)
	}
	r.ooo = oo
	// Remember which (merged) range just grew: RFC 2018 requires the
	// first SACK block to cover the most recently received segment.
	for _, iv := range r.ooo {
		if seqLEQ(iv.start, start) && seqLEQ(start, iv.end) {
			r.recentOOO = iv.start
			r.haveRecent = true
			break
		}
	}
}

func (r *Receiver) drainOOO() {
	k := 0
	for k < len(r.ooo) && seqLEQ(r.ooo[k].start, r.rcvNxt) {
		iv := r.ooo[k]
		if seqGT(iv.end, r.rcvNxt) {
			r.stats.BytesReceived += seqDiff(iv.end, r.rcvNxt)
			r.rcvNxt = iv.end
		}
		k++
	}
	if k > 0 {
		// Copy-down instead of re-slicing, so bufferOOO keeps inserting
		// into the same backing array.
		r.ooo = r.ooo[:copy(r.ooo, r.ooo[k:])]
	}
}

func (r *Receiver) sendAck() {
	r.delack.Stop()
	r.unackedSeg = 0
	r.stats.AcksSent++
	p := r.host.NewPacket()
	// Build the SACK report in the packet's own (recycled) storage; at
	// most three blocks, so the capacity is there after the first reuse.
	sack := p.Seg.Sack[:0]
	if !r.cfg.DisableSACK && len(r.ooo) > 0 {
		// RFC 2018: the block covering the most recent arrival goes
		// first; remaining slots rotate through the other ranges so
		// the sender eventually learns the whole scoreboard.
		recent := -1
		if r.haveRecent {
			for i, iv := range r.ooo {
				if iv.start == r.recentOOO {
					recent = i
					sack = append(sack, netem.SackBlock{Start: iv.start, End: iv.end})
					break
				}
			}
		}
		n := len(r.ooo)
		for k := 0; k < n && len(sack) < 3; k++ {
			idx := (r.sackCursor + k) % n
			if idx == recent {
				continue
			}
			iv := r.ooo[idx]
			sack = append(sack, netem.SackBlock{Start: iv.start, End: iv.end})
		}
		r.sackCursor = (r.sackCursor + 2) % n
	}
	p.Flow = r.flow
	p.Seg.Seq = r.isn + 1
	p.Seg.Ack = r.rcvNxt
	p.Seg.Flags = netem.FlagACK
	p.Seg.Window = uint32(r.cfg.RcvWindow)
	p.Seg.Sack = sack
	p.Size = netem.HeaderBytes
	p.ECE = r.eceEcho
	r.host.Send(p)
	r.eceEcho = false
}
