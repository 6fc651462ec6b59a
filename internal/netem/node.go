package netem

import (
	"fmt"

	"tcpsig/internal/sim"
)

// Node is anything packets can be delivered to.
type Node interface {
	Addr() Addr
	Name() string
	Deliver(p *Packet)

	// links returns the node's outgoing links, for route computation.
	links() []*Link
	addLink(l *Link)
}

// Receiver consumes packets demultiplexed to a bound port on a host. The
// packet is borrowed for the duration of the call: the host recycles it
// when Input returns, so implementations must not retain p or p.Seg.Sack.
type Receiver interface {
	Input(p *Packet)
}

// BatchReceiver is optionally implemented by port receivers that can
// consume a burst of packets arriving at the same virtual instant in one
// pass (one send attempt for N ACKs instead of N). The borrow rule of
// Receiver.Input applies to every packet in the batch.
type BatchReceiver interface {
	InputBatch(ps []*Packet)
}

// BatchNode is optionally implemented by nodes that accept a same-instant
// delivery burst in one call; links use it to hand over a whole arrival
// group instead of packet-at-a-time.
type BatchNode interface {
	DeliverBatch(ps []*Packet)
}

// Direction distinguishes capture records.
type Direction int

// Capture directions.
const (
	DirOut Direction = iota
	DirIn
)

func (d Direction) String() string {
	if d == DirOut {
		return "out"
	}
	return "in"
}

// CaptureRecord is one captured packet, a timestamped copy as tcpdump on the
// host would see it.
type CaptureRecord struct {
	At  sim.Time
	Dir Direction
	Pkt Packet
}

// Capture accumulates a host-side packet trace.
type Capture struct {
	Records []CaptureRecord
}

// record appends a deep copy of p. The value copy alone would alias the
// packet's pooled Sack storage, which is rewritten once the packet is
// recycled; the record must outlive that.
func (c *Capture) record(at sim.Time, dir Direction, p *Packet) {
	rec := CaptureRecord{At: at, Dir: dir, Pkt: *p}
	rec.Pkt.Seg.Sack = nil
	if len(p.Seg.Sack) > 0 {
		rec.Pkt.Seg.Sack = append([]SackBlock(nil), p.Seg.Sack...)
	}
	c.Records = append(c.Records, rec)
}

// Host is an end system: it originates packets through its uplink and
// demultiplexes arriving packets to bound ports.
type Host struct {
	name string
	addr Addr
	net  *Network

	uplink *Link
	ports  map[Port]Receiver

	capture *Capture

	// inNet counts the packets this host has sent that are still in the
	// network (see pool.go).
	inNet int

	// Dropped counts packets that arrived for a port nobody is bound to.
	Dropped uint64
}

// Addr returns the host address.
func (h *Host) Addr() Addr { return h.addr }

// Engine returns the simulation engine of the host's network.
func (h *Host) Engine() *sim.Engine { return h.net.eng }

// Name returns the host name.
func (h *Host) Name() string { return h.name }

func (h *Host) links() []*Link {
	if h.uplink == nil {
		return nil
	}
	return []*Link{h.uplink}
}

func (h *Host) addLink(l *Link) {
	if h.uplink != nil {
		panic(fmt.Sprintf("netem: host %s already has an uplink; hosts are single-homed", h.name))
	}
	h.uplink = l
}

// Bind registers r to receive packets addressed to port. It panics if the
// port is taken.
func (h *Host) Bind(port Port, r Receiver) {
	if _, ok := h.ports[port]; ok {
		panic(fmt.Sprintf("netem: port %d already bound on %s", port, h.name))
	}
	h.ports[port] = r
}

// Unbind releases a port.
func (h *Host) Unbind(port Port) { delete(h.ports, port) }

// EnableCapture starts recording all packets the host sends and receives,
// like running tcpdump on it. It returns the capture buffer.
func (h *Host) EnableCapture() *Capture {
	if h.capture == nil {
		h.capture = &Capture{}
	}
	return h.capture
}

// NewPacket allocates a packet from the host's network pool. Ownership
// passes back to the network when the packet is handed to Send.
func (h *Host) NewPacket() *Packet { return h.net.NewPacket() }

// InNetwork returns how many packets this host has sent that are still in
// the network: queued, on the wire, held back or duplicated by a fault. It
// is 0 once every one of them was delivered or dropped.
func (h *Host) InNetwork() int { return h.inNet }

// Send stamps and transmits a packet through the host uplink.
func (h *Host) Send(p *Packet) {
	p.ID = h.net.nextPacketID()
	p.SentAt = h.net.eng.Now()
	p.origin = h.addr
	h.inNet++
	if h.capture != nil {
		h.capture.record(h.net.eng.Now(), DirOut, p)
	}
	if h.uplink == nil {
		panic("netem: host " + h.name + " has no uplink")
	}
	h.uplink.Send(p)
}

// Deliver implements Node. The bound receiver borrows the packet for the
// Input call; afterwards it returns to the network pool.
func (h *Host) Deliver(p *Packet) {
	if h.capture != nil {
		h.capture.record(h.net.eng.Now(), DirIn, p)
	}
	if r, ok := h.ports[p.Flow.DstPort]; ok {
		r.Input(p)
	} else {
		h.Dropped++
	}
	h.net.FreePacket(p)
}

// DeliverBatch implements BatchNode: consecutive same-port packets of a
// same-instant arrival burst are handed to the bound receiver in one
// InputBatch call when it supports that, so a burst of ACKs costs one send
// attempt instead of N.
func (h *Host) DeliverBatch(ps []*Packet) {
	for i := 0; i < len(ps); {
		port := ps[i].Flow.DstPort
		j := i + 1
		for j < len(ps) && ps[j].Flow.DstPort == port {
			j++
		}
		run := ps[i:j]
		if h.capture != nil {
			now := h.net.eng.Now()
			for _, p := range run {
				h.capture.record(now, DirIn, p)
			}
		}
		switch r, ok := h.ports[port]; {
		case !ok:
			h.Dropped += uint64(len(run))
		case len(run) == 1:
			r.Input(run[0])
		default:
			if b, ok := r.(BatchReceiver); ok {
				b.InputBatch(run)
			} else {
				for _, p := range run {
					r.Input(p)
				}
			}
		}
		for _, p := range run {
			h.net.FreePacket(p)
		}
		i = j
	}
}

// Router forwards packets by destination address.
type Router struct {
	name string
	addr Addr
	net  *Network

	out    []*Link
	routes map[Addr]*Link

	// NoRoute counts packets dropped for lack of a route.
	NoRoute uint64
}

// Addr returns the router address.
func (r *Router) Addr() Addr { return r.addr }

// Name returns the router name.
func (r *Router) Name() string { return r.name }

func (r *Router) links() []*Link { return r.out }
func (r *Router) addLink(l *Link) {
	r.out = append(r.out, l)
}

// AddRoute installs a static route: packets for dst leave via link.
func (r *Router) AddRoute(dst Addr, link *Link) {
	r.routes[dst] = link
}

// Deliver implements Node by forwarding; ownership passes to the next
// link, or back to the pool when no route exists.
func (r *Router) Deliver(p *Packet) {
	link, ok := r.routes[p.Flow.DstAddr]
	if !ok {
		r.NoRoute++
		r.net.FreePacket(p)
		return
	}
	link.Send(p)
}
