package netem

import (
	"time"

	"tcpsig/internal/obs"
	"tcpsig/internal/sim"
)

// LinkConfig describes one direction of a link.
type LinkConfig struct {
	// RateBps is the serialization rate in bits per second. Zero means
	// infinitely fast (no serialization delay, no queueing).
	RateBps float64

	// Delay is the one-way propagation delay.
	Delay time.Duration

	// Jitter adds a uniform random component in [-Jitter, +Jitter] to the
	// propagation delay of each packet. Delivery order is preserved, as
	// with tc netem's default configuration.
	Jitter time.Duration

	// Loss is the independent per-packet drop probability applied at
	// transmission time (after queueing), like tc netem loss.
	Loss float64

	// Queue buffers packets awaiting transmission. Nil gets an unlimited
	// drop-tail queue.
	Queue Queue

	// Bucket optionally meters departures through a token bucket shaper
	// in addition to the serialization rate, matching tc tbf.
	Bucket *TokenBucket

	// Faults, when non-nil, is consulted for every packet that clears the
	// queue and can drop, corrupt, duplicate, or re-order it (see
	// internal/faults for the models).
	Faults FaultInjector
}

// LinkStats counts link activity.
type LinkStats struct {
	Sent           uint64 // packets handed to the link
	Delivered      uint64
	QueueDrops     uint64 // rejected by the buffer
	LossDrops      uint64 // random loss
	BytesDelivered uint64

	// Fault-injection counters (zero unless LinkConfig.Faults is set).
	FaultDrops uint64
	Corrupted  uint64
	Duplicated uint64
	Reordered  uint64
}

type pendingRelease struct {
	at   sim.Time
	size int
}

type pendingDelivery struct {
	at  sim.Time
	p   *Packet
	del bool // random loss: occupy the slot but do not deliver
}

// Link is a unidirectional channel from one node to another: a FIFO buffer
// drained at a serialization rate, followed by a propagation pipe.
//
// Departures are computed analytically (virtual finish times), so each
// packet costs a single scheduled event — its delivery — regardless of
// buffer depth.
type Link struct {
	Name string

	eng *sim.Engine
	cfg LinkConfig
	dst Node
	src Node

	// owner is the network whose packet pool dropped/consumed packets
	// return to; nil for standalone links (NewLink), which fall back to
	// letting the GC reclaim packets, the pre-pooling behaviour.
	owner *Network

	lastDepart   sim.Time
	lastDelivery sim.Time

	// releases tracks buffer occupancy: packets admitted but not yet
	// fully serialized, drained lazily as time passes.
	releases    []pendingRelease
	releaseHead int

	// deliveries is the propagation pipeline; only its head event is in
	// the engine queue.
	deliveries   []pendingDelivery
	deliveryHead int
	deliveryArmd bool
	deliverFn    sim.Event

	// batch is the reusable scratch buffer deliverHead collects one
	// same-instant arrival group into before handing it to dst.
	batch []*Packet

	stats LinkStats

	// tr is the event tracer picked up from the engine's attached obs.Sink
	// at construction time; nil when tracing is off. Emit helpers are
	// nil-safe, but call sites that must compute arguments (buffer
	// occupancy is an interface call) guard on tr explicitly.
	tr *obs.Tracer

	// Tap, when non-nil, observes every packet at the moment it is handed
	// to the link (before queueing/dropping).
	Tap func(p *Packet)
}

// NewLink builds a standalone unidirectional link delivering into dst.
// Most callers use Network.Connect instead.
func NewLink(eng *sim.Engine, name string, cfg LinkConfig, dst Node) *Link {
	if cfg.Queue == nil {
		cfg.Queue = NewDropTail(0)
	}
	l := &Link{Name: name, eng: eng, cfg: cfg, dst: dst}
	l.tr = obs.FromEngine(eng).T()
	l.deliverFn = l.deliverHead
	return l
}

// Config returns the link configuration.
func (l *Link) Config() LinkConfig { return l.cfg }

// Stats returns a snapshot of the link counters.
func (l *Link) Stats() LinkStats { return l.stats }

// Queue exposes the buffer for occupancy inspection.
func (l *Link) Queue() Queue { return l.cfg.Queue }

// Dst returns the node this link delivers into.
func (l *Link) Dst() Node { return l.dst }

// Src returns the node that feeds this link (nil for standalone links).
func (l *Link) Src() Node { return l.src }

// free returns a packet the link consumed (queue drop, wire loss) to the
// owning network's pool.
func (l *Link) free(p *Packet) {
	if l.owner != nil {
		l.owner.FreePacket(p)
	}
}

// duplicate clones p for a fault duplicate: one more packet in the
// network, counted against the host that sent the original.
func (l *Link) duplicate(p *Packet) *Packet {
	c := clonePacket(p)
	if l.owner != nil {
		if h := l.owner.origin(c); h != nil {
			h.inNet++
		}
	}
	return c
}

// drainReleases returns buffer bytes for packets that have finished
// serializing by now.
func (l *Link) drainReleases() {
	now := l.eng.Now()
	for l.releaseHead < len(l.releases) && l.releases[l.releaseHead].at <= now {
		rel := l.releases[l.releaseHead]
		l.cfg.Queue.Release(rel.size)
		if l.tr != nil {
			// Stamped with the true serialization-finish time, which may
			// predate the current clock because releases drain lazily.
			l.tr.Dequeue(rel.at, l.Name, l.cfg.Queue.Bytes(), rel.size)
		}
		l.releaseHead++
	}
	if l.releaseHead == len(l.releases) && len(l.releases) > 0 {
		l.releases = l.releases[:0]
		l.releaseHead = 0
	} else if l.releaseHead > 1024 && l.releaseHead*2 > len(l.releases) {
		n := copy(l.releases, l.releases[l.releaseHead:])
		l.releases = l.releases[:n]
		l.releaseHead = 0
	}
}

// Send enqueues a packet for transmission. Drops are silent, as on a real
// wire; senders learn about them from missing ACKs.
func (l *Link) Send(p *Packet) {
	l.stats.Sent++
	if l.Tap != nil {
		l.Tap(p)
	}
	l.drainReleases()
	now := l.eng.Now()
	if m, ok := l.cfg.Queue.(interface {
		AdmitMark(size int) (bool, bool)
	}); ok {
		var preEarly uint64
		if l.tr != nil {
			if r, ok := l.cfg.Queue.(*RED); ok {
				preEarly = r.EarlyDrops
			}
		}
		admit, mark := m.AdmitMark(p.Size)
		if !admit {
			l.stats.QueueDrops++
			if l.tr != nil {
				reason := "queue"
				if r, ok := l.cfg.Queue.(*RED); ok && r.EarlyDrops > preEarly {
					reason = "red"
				}
				l.tr.Drop(now, l.Name, reason, l.cfg.Queue.Bytes(), p.Size)
			}
			l.free(p)
			return
		}
		if mark {
			p.ECE = true
			if l.tr != nil {
				l.tr.ECNMark(now, l.Name, l.cfg.Queue.Bytes(), p.Size)
			}
		} else if l.tr != nil {
			l.tr.Enqueue(now, l.Name, l.cfg.Queue.Bytes(), p.Size)
		}
	} else if !l.cfg.Queue.Admit(p.Size) {
		l.stats.QueueDrops++
		if l.tr != nil {
			l.tr.Drop(now, l.Name, "queue", l.cfg.Queue.Bytes(), p.Size)
		}
		l.free(p)
		return
	} else if l.tr != nil {
		l.tr.Enqueue(now, l.Name, l.cfg.Queue.Bytes(), p.Size)
	}

	// Analytic departure: wait for prior packets, shaping tokens, then
	// serialize at the link rate.
	start := now
	if l.lastDepart > start {
		start = l.lastDepart
	}
	if l.cfg.Bucket != nil {
		start += l.cfg.Bucket.ReadyAfter(start, p.Size)
	}
	var txTime time.Duration
	if l.cfg.RateBps > 0 {
		txTime = time.Duration(float64(p.Size*8) / l.cfg.RateBps * float64(time.Second))
	}
	depart := start + txTime
	l.lastDepart = depart
	l.releases = append(l.releases, pendingRelease{at: depart, size: p.Size})

	// Random loss applies on the wire: the packet consumes its
	// serialization slot but is not delivered.
	lost := l.cfg.Loss > 0 && l.eng.Rand().Float64() < l.cfg.Loss
	if lost {
		l.stats.LossDrops++
	}
	var act FaultAction
	faultDrop := false
	if l.cfg.Faults != nil {
		act = l.cfg.Faults.OnTransmit(now, p)
		if act.Drop && !lost {
			l.stats.FaultDrops++
			lost = true
			faultDrop = true
		}
	}
	if l.tr != nil {
		switch {
		case faultDrop:
			l.tr.Drop(now, l.Name, "fault", l.cfg.Queue.Bytes(), p.Size)
		case lost:
			l.tr.Drop(now, l.Name, "loss", l.cfg.Queue.Bytes(), p.Size)
		default:
			if act.ExtraDelay > 0 {
				l.tr.Fault(now, l.Name, "reorder", int64(act.ExtraDelay), p.Size)
			}
			if act.Corrupt {
				l.tr.Fault(now, l.Name, "corrupt", 0, p.Size)
			}
			if act.Duplicate {
				l.tr.Fault(now, l.Name, "duplicate", 0, p.Size)
			}
		}
	}
	prop := l.cfg.Delay + jitterIn(l.eng.Rand(), l.cfg.Jitter)
	if prop < 0 {
		prop = 0
	}
	deliverAt := depart + prop
	if !lost && act.ExtraDelay > 0 {
		// Re-ordered delivery bypasses the FIFO pipeline entirely: the
		// packet arrives ExtraDelay late while packets sent after it keep
		// their normal delivery times and may overtake it.
		l.stats.Reordered++
		dp := p
		if act.Corrupt {
			l.stats.Corrupted++
			dp = corruptCopy(p)
		}
		l.eng.At(deliverAt+act.ExtraDelay, func() {
			l.stats.Delivered++
			l.stats.BytesDelivered += uint64(dp.Size)
			l.dst.Deliver(dp)
		})
		if act.Duplicate {
			l.stats.Duplicated++
			dup := l.duplicate(p)
			l.eng.At(deliverAt+act.ExtraDelay, func() {
				l.stats.Delivered++
				l.stats.BytesDelivered += uint64(dup.Size)
				l.dst.Deliver(dup)
			})
		}
		// When corruption replaced the original on the wire, the original
		// is abandoned to the GC rather than recycled: the documented
		// contract is that corruption never mutates the sender's packet,
		// and fault paths are rare enough that the leak is irrelevant. The
		// copy carries the original's origin, so it takes over its place
		// in the sender's in-network count.
		return
	}
	// Preserve FIFO delivery despite jitter, as tc netem does when
	// reordering is not requested.
	if deliverAt < l.lastDelivery {
		deliverAt = l.lastDelivery
	}
	l.lastDelivery = deliverAt
	if l.deliveryHead > 1024 && l.deliveryHead*2 > len(l.deliveries) {
		n := copy(l.deliveries, l.deliveries[l.deliveryHead:])
		for i := n; i < len(l.deliveries); i++ {
			l.deliveries[i].p = nil
		}
		l.deliveries = l.deliveries[:n]
		l.deliveryHead = 0
	}
	dp := p
	if !lost && act.Corrupt {
		l.stats.Corrupted++
		// The original is abandoned, not recycled: corruption must not
		// mutate the sender's packet (see the fault-path note above).
		dp = corruptCopy(p)
	}
	l.deliveries = append(l.deliveries, pendingDelivery{at: deliverAt, p: dp, del: !lost})
	if !lost && act.Duplicate {
		l.stats.Duplicated++
		l.deliveries = append(l.deliveries, pendingDelivery{at: deliverAt, p: l.duplicate(dp), del: true})
	}
	if !l.deliveryArmd {
		l.deliveryArmd = true
		l.eng.At(deliverAt, l.deliverFn)
	}
}

// deliverHead hands every due pending delivery to the receiver and re-arms
// the timer for the next one. Due deliveries share one virtual instant (the
// engine dispatched this event at the head's timestamp), so they form one
// arrival burst: the link collects them and hands the whole group to a
// batch-aware destination in a single call.
func (l *Link) deliverHead() {
	now := l.eng.Now()
	batch := l.batch[:0]
	head := l.deliveryHead
	for head < len(l.deliveries) {
		d := &l.deliveries[head]
		if d.at > now {
			break
		}
		head++
		if d.del {
			l.stats.Delivered++
			l.stats.BytesDelivered += uint64(d.p.Size)
			batch = append(batch, d.p)
		} else {
			l.free(d.p)
		}
		d.p = nil
	}
	l.deliveryHead = head
	if head == len(l.deliveries) {
		l.deliveries = l.deliveries[:0]
		l.deliveryHead = 0
		l.deliveryArmd = false
	} else {
		l.eng.At(l.deliveries[head].at, l.deliverFn)
	}
	// Deliver after the pipeline bookkeeping above: receivers may respond
	// by sending, and Send must see a consistent pipeline/armed state.
	switch len(batch) {
	case 0:
	case 1:
		l.dst.Deliver(batch[0])
	default:
		if bd, ok := l.dst.(BatchNode); ok {
			bd.DeliverBatch(batch)
		} else {
			for _, p := range batch {
				l.dst.Deliver(p)
			}
		}
	}
	for i := range batch {
		batch[i] = nil
	}
	l.batch = batch[:0]
}

// SetLoss changes the link's random-loss probability at runtime, enabling
// failure injection (outages, lossy episodes) mid-experiment.
func (l *Link) SetLoss(p float64) { l.cfg.Loss = p }

// QueueDelay estimates the current queueing delay a newly arriving packet
// would experience, in seconds of buffered bytes at the link rate. Used by
// the TSLP probe emulation to report buffer occupancy.
func (l *Link) QueueDelay() time.Duration {
	if l.cfg.RateBps <= 0 {
		return 0
	}
	l.drainReleases()
	return time.Duration(float64(l.cfg.Queue.Bytes()*8) / l.cfg.RateBps * float64(time.Second))
}
