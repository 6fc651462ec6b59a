package netem

import (
	"fmt"
	"testing"
	"time"

	"tcpsig/internal/sim"
)

// faultFunc adapts a function to FaultInjector.
type faultFunc func(now sim.Time, p *Packet) FaultAction

func (f faultFunc) OnTransmit(now sim.Time, p *Packet) FaultAction { return f(now, p) }

// everyNth applies act to every nth packet the link transmits.
func everyNth(n int, act FaultAction) FaultInjector {
	i := 0
	return faultFunc(func(sim.Time, *Packet) FaultAction {
		i++
		if i%n == 0 {
			return act
		}
		return FaultAction{}
	})
}

// TestInNetworkReturnsToZero sends a burst from host a through a router to
// host b under each way a packet can retire — delivery, queue drop, random
// loss, fault drop, no route — and each way a fault can fan it out or hold
// it back — duplicate, corruption, reorder. Every packet a sent is counted
// until it retires, so a's count starts at the burst size and is back at 0
// once the network has drained, with pooling on and off.
func TestInNetworkReturnsToZero(t *testing.T) {
	const burst = 40
	cases := []struct {
		name    string
		cfg     func() LinkConfig // fresh per run: queues and injectors keep state
		noRoute bool
		check   func(LinkStats) bool
	}{
		{name: "delivery", cfg: func() LinkConfig { return LinkConfig{RateBps: 1e8} },
			check: func(s LinkStats) bool { return s.Delivered == burst }},
		{name: "queue-drop", cfg: func() LinkConfig { return LinkConfig{RateBps: 1e6, Queue: NewDropTail(6000)} },
			check: func(s LinkStats) bool { return s.QueueDrops > 0 && s.Delivered > 0 }},
		{name: "random-loss", cfg: func() LinkConfig { return LinkConfig{RateBps: 1e8, Loss: 0.5} },
			check: func(s LinkStats) bool { return s.LossDrops > 0 && s.Delivered > 0 }},
		{name: "fault-drop", cfg: func() LinkConfig { return LinkConfig{RateBps: 1e8, Faults: everyNth(2, FaultAction{Drop: true})} },
			check: func(s LinkStats) bool { return s.FaultDrops == burst/2 }},
		{name: "duplicate", cfg: func() LinkConfig { return LinkConfig{RateBps: 1e8, Faults: everyNth(1, FaultAction{Duplicate: true})} },
			check: func(s LinkStats) bool { return s.Duplicated == burst && s.Delivered == 2*burst }},
		{name: "corrupt", cfg: func() LinkConfig { return LinkConfig{RateBps: 1e8, Faults: everyNth(3, FaultAction{Corrupt: true})} },
			check: func(s LinkStats) bool { return s.Corrupted > 0 && s.Delivered == burst }},
		{name: "reorder", cfg: func() LinkConfig {
			return LinkConfig{RateBps: 1e8, Faults: everyNth(3, FaultAction{ExtraDelay: 5 * time.Millisecond})}
		},
			check: func(s LinkStats) bool { return s.Reordered > 0 && s.Delivered == burst }},
		{name: "reorder-duplicate-corrupt", cfg: func() LinkConfig {
			return LinkConfig{RateBps: 1e8, Faults: everyNth(2, FaultAction{ExtraDelay: 5 * time.Millisecond, Duplicate: true, Corrupt: true})}
		},
			check: func(s LinkStats) bool {
				return s.Reordered == burst/2 && s.Duplicated == burst/2 && s.Corrupted == burst/2 && s.Delivered == burst*3/2
			}},
		{name: "no-route", cfg: func() LinkConfig { return LinkConfig{RateBps: 1e8} }, noRoute: true,
			check: func(s LinkStats) bool { return s.Sent == 0 }},
	}
	for _, pooling := range []bool{true, false} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/pooling=%v", tc.name, pooling), func(t *testing.T) {
				defer SetDefaultPooling(SetDefaultPooling(pooling))
				eng := sim.NewEngine(1)
				net := New(eng)
				a, b := net.NewHost("a"), net.NewHost("b")
				r := net.NewRouter("r")
				fast := LinkConfig{RateBps: 1e9, Delay: time.Millisecond}
				net.Connect(a, r, fast, fast)
				toB, _ := net.Connect(r, b, tc.cfg(), fast)
				net.ComputeRoutes()
				b.Bind(80, &sink{eng: eng})

				dst := b.Addr()
				if tc.noRoute {
					dst = 99
				}
				for i := 0; i < burst; i++ {
					p := a.NewPacket()
					p.Flow = FlowKey{SrcAddr: a.Addr(), DstAddr: dst, SrcPort: 1000, DstPort: 80}
					p.Seg.Seq = uint32(i)
					p.Seg.Sack = append(p.Seg.Sack, SackBlock{Start: 1, End: 2})
					p.Size = 1500
					a.Send(p)
				}
				if got := a.InNetwork(); got != burst {
					t.Fatalf("InNetwork after the burst = %d, want %d", got, burst)
				}
				for eng.Step() {
					if got := a.InNetwork(); got < 0 {
						t.Fatalf("InNetwork went negative (%d) at %v", got, eng.Now())
					}
				}
				if got := a.InNetwork(); got != 0 {
					t.Errorf("InNetwork after the network drained = %d, want 0", got)
				}
				if got := b.InNetwork(); got != 0 {
					t.Errorf("receiver InNetwork = %d, want 0 (it sent nothing)", got)
				}
				if st := toB.Stats(); !tc.check(st) {
					t.Errorf("case did not exercise its path: %+v", st)
				}
			})
		}
	}
}
