// Package netem emulates packet networks on top of the sim engine.
//
// It provides rate-limited links with configurable propagation delay, jitter
// and random loss, buffer disciplines (drop-tail, token-bucket shaping, RED),
// hosts with port demultiplexing and tcpdump-like capture, and routers with
// static or auto-computed routes. The package models exactly the mechanisms
// the paper's testbed built from tc and consumer routers: a capacity
// bottleneck whose buffer the flow under test may or may not fill.
package netem

import (
	"fmt"

	"tcpsig/internal/sim"
)

// Addr identifies a node in the emulated network.
type Addr uint32

// Port identifies a transport endpoint within a node.
type Port uint16

// FlowKey identifies one direction of a transport conversation.
type FlowKey struct {
	SrcAddr Addr
	DstAddr Addr
	SrcPort Port
	DstPort Port
}

// Reverse returns the key of the opposite direction.
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{SrcAddr: k.DstAddr, DstAddr: k.SrcAddr, SrcPort: k.DstPort, DstPort: k.SrcPort}
}

func (k FlowKey) String() string {
	return fmt.Sprintf("%d:%d>%d:%d", k.SrcAddr, k.SrcPort, k.DstAddr, k.DstPort)
}

// TCP segment flags.
const (
	FlagSYN = 1 << iota
	FlagACK
	FlagFIN
	FlagRST
)

// SackBlock reports one contiguous received range [Start, End).
type SackBlock struct {
	Start uint32
	End   uint32
}

// Segment carries the TCP-level content of a packet.
type Segment struct {
	Seq        uint32
	Ack        uint32
	Flags      uint8
	Window     uint32 // advertised receive window, bytes
	PayloadLen int    // application bytes carried

	// Sack carries up to three selective-acknowledgment blocks
	// (RFC 2018). The slice is never mutated between send and delivery,
	// but its backing array belongs to the packet and is recycled with
	// it — anything that outlives the delivery (capture records, fault
	// duplicates) must deep-copy it.
	Sack []SackBlock
}

// HeaderBytes is the fixed per-packet overhead we charge for IP+TCP headers.
const HeaderBytes = 40

// Packet is the unit of transmission in the emulated network.
type Packet struct {
	ID   uint64 // unique per network, for tracing
	Flow FlowKey
	Seg  Segment

	// Size is the wire size in bytes (payload + headers).
	Size int

	// SentAt is the virtual time the packet left its origin host.
	SentAt sim.Time

	// Retransmit marks TCP retransmissions (used by trace analysis and
	// honoured by Karn's rule in RTT sampling).
	Retransmit bool

	// ECE mirrors TCP's ECN-Echo bit; set by ECN-marking queues on the
	// acknowledgment path in extended experiments.
	ECE bool

	// free marks a packet currently parked on its network's free list;
	// the pool uses it to catch double frees.
	free bool

	// origin is the address of the host that sent the packet, whose
	// in-network count it holds until it retires (Host.InNetwork); 0 for
	// packets no host sent. It sits in the struct's tail padding, so
	// packets and capture records keep their size.
	origin Addr
}

// IsData reports whether the packet carries application payload.
func (p *Packet) IsData() bool { return p.Seg.PayloadLen > 0 }

// EndSeq returns the sequence number immediately after this packet's payload.
func (p *Packet) EndSeq() uint32 { return p.Seg.Seq + uint32(p.Seg.PayloadLen) }

func (p *Packet) String() string {
	fl := ""
	if p.Seg.Flags&FlagSYN != 0 {
		fl += "S"
	}
	if p.Seg.Flags&FlagACK != 0 {
		fl += "A"
	}
	if p.Seg.Flags&FlagFIN != 0 {
		fl += "F"
	}
	if p.Seg.Flags&FlagRST != 0 {
		fl += "R"
	}
	return fmt.Sprintf("pkt[%s %s seq=%d ack=%d len=%d]", p.Flow, fl, p.Seg.Seq, p.Seg.Ack, p.Seg.PayloadLen)
}
