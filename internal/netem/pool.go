package netem

import "sync/atomic"

// Packet pooling
//
// Every transmitted segment used to cost one heap allocation that died as
// garbage the moment the receiver consumed it — the dominant allocation in
// emulation hot paths. Packets now cycle through a per-Network free list
// with an explicit ownership hand-off:
//
//	producer (tcpsim)  --NewPacket-->  Host.Send  -->  Link
//	    Link drop/loss ------------------------------> free list
//	    Link delivery  -->  Node.Deliver
//	        Router: forwards (ownership passes to the next link)
//	        Host: Receiver.Input borrows p for the call, then Host
//	              returns it to the free list
//
// The free list is per Network, not a sync.Pool: a simulation is
// single-threaded on its engine, per-run state keeps parallel runs
// independent (no cross-engine sharing, no wall-clock-dependent reuse), and
// recycling order is deterministic, so pooling cannot perturb reproducible
// runs. Fault paths that fan one packet out into several copies
// (duplication, corruption) deep-copy the Sack storage so no two live
// packets ever share a pooled buffer.
//
// The same hand-off points keep an exact count, per sending host, of the
// packets that host has in the network (Host.InNetwork): Host.Send adds one
// and a fault duplicate adds one, FreePacket — which every delivery and
// drop reaches — takes one away. A corruption copy inherits its original's
// place in the count, and the original is never freed, so the count holds
// one for one.

// defaultPooling controls whether Networks built by New recycle packets.
// It exists for the pooled-vs-unpooled equivalence tests; production code
// leaves it on.
var defaultPooling atomic.Bool

func init() { defaultPooling.Store(true) }

// SetDefaultPooling toggles packet recycling for Networks created
// afterwards and returns the previous setting. Tests that prove pooling
// does not change results run the same seeds with it off.
func SetDefaultPooling(on bool) bool { return defaultPooling.Swap(on) }

// NewPacket returns a zeroed packet owned by the caller. Ownership passes
// to the network when the packet is handed to Host.Send or Link.Send; the
// network recycles it once it is dropped or consumed.
func (n *Network) NewPacket() *Packet {
	if last := len(n.freePkts) - 1; n.pooling && last >= 0 {
		p := n.freePkts[last]
		n.freePkts[last] = nil
		n.freePkts = n.freePkts[:last]
		p.free = false
		return p
	}
	return &Packet{}
}

// FreePacket retires p from its sending host's in-network count and
// returns it to the network's free list. Freeing the same packet twice
// panics: a double free means two owners, which would silently corrupt both
// once the packet is recycled.
func (n *Network) FreePacket(p *Packet) {
	if h := n.origin(p); h != nil {
		h.inNet--
		p.origin = 0
	}
	if !n.pooling {
		return
	}
	if p.free {
		panic("netem: double free of packet " + p.String())
	}
	p.reset()
	p.free = true
	n.freePkts = append(n.freePkts, p)
}

// PoolSize reports how many packets are parked on the free list, for tests.
func (n *Network) PoolSize() int { return len(n.freePkts) }

// reset clears the packet for reuse, keeping the Sack block capacity so a
// recycled ACK does not re-allocate its scoreboard report. The whole-struct
// assignment is what the reset audit test relies on: any field added to
// Packet or Segment is zeroed here by construction, not by enumeration.
func (p *Packet) reset() {
	sack := p.Seg.Sack[:0]
	*p = Packet{}
	p.Seg.Sack = sack
}

// clonePacket returns a standalone copy of p for the fault paths that fan
// one packet out into several deliveries. The copy owns its Sack storage:
// the original's backing array is pool property and will be rewritten once
// the original is recycled.
func clonePacket(p *Packet) *Packet {
	c := *p
	c.free = false
	c.Seg.Sack = nil
	if len(p.Seg.Sack) > 0 {
		c.Seg.Sack = append([]SackBlock(nil), p.Seg.Sack...)
	}
	return &c
}
