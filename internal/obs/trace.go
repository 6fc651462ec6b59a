package obs

import "tcpsig/internal/sim"

// Kind is the event taxonomy. It is deliberately small and fixed: every
// instrumented subsystem maps onto these kinds, so exporters and tests
// need no per-subsystem knowledge.
type Kind uint8

// Event kinds.
const (
	// KindEnqueue: a packet was admitted to a link buffer. V1 = buffer
	// bytes after admission, V2 = packet wire size.
	KindEnqueue Kind = iota

	// KindDequeue: a packet finished serializing and left the buffer.
	// V1 = buffer bytes after release, V2 = packet wire size. Dequeues
	// are drained lazily, so they may be recorded after later enqueues;
	// At always carries the true serialization-finish time.
	KindDequeue

	// KindDrop: a packet was dropped. Arg = reason ("queue" for buffer
	// overflow, "red" for an AQM early drop, "loss" for random wire
	// loss, "fault" for an injected drop). V1 = buffer bytes, V2 = size.
	KindDrop

	// KindECNMark: an AQM queue marked a packet Congestion Experienced
	// instead of dropping it. V1 = buffer bytes after admission, V2 = size.
	KindECNMark

	// KindFault: a non-drop fault-injector action. Arg = "corrupt",
	// "duplicate" or "reorder"; V1 = extra delay in ns for reorders,
	// V2 = packet wire size.
	KindFault

	// KindCwnd: the congestion window changed. V1 = cwnd bytes,
	// V2 = ssthresh bytes (-1 while ssthresh is still "infinite").
	KindCwnd

	// KindState: a sender state transition. Arg = the state entered
	// ("established", "recovery", "recovery-exit", "loss-recovery",
	// "fin-sent", "closed").
	KindState

	// KindRTO: the retransmission timer fired. Arg = "rto" for a real
	// timeout, "tlp" for a tail-loss probe.
	KindRTO

	// KindRTT: an RTT sample was taken. V1 = RTT in ns.
	KindRTT

	numKinds
)

var kindNames = [numKinds]string{
	"enqueue", "dequeue", "drop", "ecn-mark", "fault",
	"cwnd", "state", "rto", "rtt",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one structured trace record. Comp identifies the emitting
// component (a link or flow label, interned at construction time so the
// hot path never formats strings); Arg refines the kind.
type Event struct {
	At   sim.Time
	Kind Kind
	Comp string
	Arg  string
	V1   int64
	V2   int64
}

// DefaultTracerEvents is the default ring capacity: enough for every
// event of a 10-second access-link experiment, bounded so tracing a
// pathological run cannot exhaust memory.
const DefaultTracerEvents = 1 << 19

// Tracer records events into a bounded ring buffer: when full, the oldest
// events are overwritten, so a trace always holds the most recent window.
// All methods are safe on a nil receiver (a cheap no-op), which is how
// disabled tracing stays off the hot path.
type Tracer struct {
	buf     []Event
	next    int
	wrapped bool
	dropped uint64
}

// NewTracer returns a tracer holding up to capacity events
// (DefaultTracerEvents when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTracerEvents
	}
	return &Tracer{buf: make([]Event, 0, capacity)}
}

// Emit records an event. Safe on nil.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	t.add(ev)
}

// add stores into the ring, overwriting the oldest event once full.
func (t *Tracer) add(ev Event) {
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, ev)
		return
	}
	t.buf[t.next] = ev
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
	}
	t.wrapped = true
	t.dropped++
}

// Len returns the number of retained events (0 for nil).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.buf)
}

// Dropped returns how many events were overwritten by ring wrap-around.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Events returns the retained events in recording order (a copy).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, 0, len(t.buf))
	if t.wrapped {
		out = append(out, t.buf[t.next:]...)
		out = append(out, t.buf[:t.next]...)
	} else {
		out = append(out, t.buf...)
	}
	return out
}

// Typed emit helpers. Each is a nil check plus a struct store when
// enabled; call sites that must compute an argument (e.g. an interface
// call for buffer occupancy) should guard with Enabled first.

// Enabled reports whether events are being recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// Enqueue records a buffer admission.
func (t *Tracer) Enqueue(at sim.Time, comp string, bufBytes, size int) {
	if t == nil {
		return
	}
	t.add(Event{At: at, Kind: KindEnqueue, Comp: comp, V1: int64(bufBytes), V2: int64(size)})
}

// Dequeue records a buffer release (serialization finished).
func (t *Tracer) Dequeue(at sim.Time, comp string, bufBytes, size int) {
	if t == nil {
		return
	}
	t.add(Event{At: at, Kind: KindDequeue, Comp: comp, V1: int64(bufBytes), V2: int64(size)})
}

// Drop records a packet drop with its reason.
func (t *Tracer) Drop(at sim.Time, comp, reason string, bufBytes, size int) {
	if t == nil {
		return
	}
	t.add(Event{At: at, Kind: KindDrop, Comp: comp, Arg: reason, V1: int64(bufBytes), V2: int64(size)})
}

// ECNMark records an AQM congestion mark.
func (t *Tracer) ECNMark(at sim.Time, comp string, bufBytes, size int) {
	if t == nil {
		return
	}
	t.add(Event{At: at, Kind: KindECNMark, Comp: comp, V1: int64(bufBytes), V2: int64(size)})
}

// Fault records a non-drop fault-injector action.
func (t *Tracer) Fault(at sim.Time, comp, action string, extraDelayNs int64, size int) {
	if t == nil {
		return
	}
	t.add(Event{At: at, Kind: KindFault, Comp: comp, Arg: action, V1: extraDelayNs, V2: int64(size)})
}

// Cwnd records a congestion-window update (ssthresh -1 = infinite).
func (t *Tracer) Cwnd(at sim.Time, comp string, cwnd, ssthresh int64) {
	if t == nil {
		return
	}
	t.add(Event{At: at, Kind: KindCwnd, Comp: comp, V1: cwnd, V2: ssthresh})
}

// State records a sender state transition.
func (t *Tracer) State(at sim.Time, comp, state string) {
	if t == nil {
		return
	}
	t.add(Event{At: at, Kind: KindState, Comp: comp, Arg: state})
}

// RTO records a retransmission-timer firing ("rto" or "tlp").
func (t *Tracer) RTO(at sim.Time, comp, kind string) {
	if t == nil {
		return
	}
	t.add(Event{At: at, Kind: KindRTO, Comp: comp, Arg: kind})
}

// RTT records a round-trip-time sample.
func (t *Tracer) RTT(at sim.Time, comp string, rtt sim.Time) {
	if t == nil {
		return
	}
	t.add(Event{At: at, Kind: KindRTT, Comp: comp, V1: int64(rtt)})
}
