// Package sim provides a deterministic discrete-event simulation engine.
//
// All network emulation in this repository runs on a virtual clock owned by
// an Engine. Events are closures scheduled for a virtual time; the engine
// executes them in nondecreasing time order, breaking ties by scheduling
// order so that runs are fully reproducible. Randomness is provided by a
// seeded source attached to the engine, never by the global rand state.
//
// The event queue is a value-based 4-ary min-heap: no per-event allocation
// and cache-friendly sift operations, which matters when emulating
// near-gigabit links (millions of events per simulated second).
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is a virtual timestamp measured from the start of the simulation.
type Time = time.Duration

// Event is a callback executed at a scheduled virtual time.
type Event func()

type schedEvent struct {
	at  Time
	seq uint64 // tie-break: FIFO among equal timestamps
	fn  Event
}

// Engine is a single-threaded discrete-event simulator.
//
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now     Time
	q       []schedEvent
	seq     uint64
	rng     *rand.Rand
	stopped bool

	executed   uint64
	maxPending int

	// obs is an opaque slot for an attached observability sink. The engine
	// never looks inside it; holding it as `any` here lets higher layers
	// (internal/obs and the components it instruments) share one attachment
	// point without an import cycle through this package.
	obs any
}

// NewEngine returns an engine whose random source is seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Executed returns the number of events executed so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns the number of events still queued.
func (e *Engine) Pending() int { return len(e.q) }

// MaxPending returns the high-water mark of the event queue length.
func (e *Engine) MaxPending() int { return e.maxPending }

// SetObserver attaches an opaque observer (e.g. an *obs.Sink) to the
// engine. nil detaches.
func (e *Engine) SetObserver(o any) { e.obs = o }

// Observer returns the attached observer, or nil.
func (e *Engine) Observer() any { return e.obs }

func (e *Engine) less(i, j int) bool {
	if e.q[i].at != e.q[j].at {
		return e.q[i].at < e.q[j].at
	}
	return e.q[i].seq < e.q[j].seq
}

// push inserts an event into the 4-ary heap.
func (e *Engine) push(ev schedEvent) {
	e.q = append(e.q, ev)
	if len(e.q) > e.maxPending {
		e.maxPending = len(e.q)
	}
	i := len(e.q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !e.less(i, p) {
			break
		}
		e.q[i], e.q[p] = e.q[p], e.q[i]
		i = p
	}
}

// pop removes the earliest event from the 4-ary heap.
func (e *Engine) pop() schedEvent {
	top := e.q[0]
	last := len(e.q) - 1
	e.q[0] = e.q[last]
	e.q[last] = schedEvent{} // release fn for GC
	e.q = e.q[:last]
	i := 0
	n := len(e.q)
	for {
		min := i
		base := 4*i + 1
		for c := base; c < base+4 && c < n; c++ {
			if e.less(c, min) {
				min = c
			}
		}
		if min == i {
			break
		}
		e.q[i], e.q[min] = e.q[min], e.q[i]
		i = min
	}
	return top
}

// Schedule runs fn after delay of virtual time. A negative delay is treated
// as zero.
func (e *Engine) Schedule(delay Time, fn Event) {
	if delay < 0 {
		delay = 0
	}
	e.At(e.now+delay, fn)
}

// At runs fn at absolute virtual time t. Scheduling in the past clamps to
// the current time.
func (e *Engine) At(t Time, fn Event) {
	if fn == nil {
		panic("sim: nil event")
	}
	if t < e.now {
		t = e.now
	}
	e.push(schedEvent{at: t, seq: e.seq, fn: fn})
	e.seq++
}

// Handle identifies a cancellable scheduled event.
type Handle struct{ dead *bool }

// ScheduleHandle is Schedule returning a Handle that can cancel the event.
// It costs one small allocation; use plain Schedule on hot paths.
func (e *Engine) ScheduleHandle(delay Time, fn Event) Handle {
	dead := new(bool)
	e.Schedule(delay, func() {
		if !*dead {
			*dead = true
			fn()
		}
	})
	return Handle{dead: dead}
}

// Cancel prevents the event from running. Cancelling an already-executed or
// already-cancelled event is a no-op.
func (h Handle) Cancel() {
	if h.dead != nil {
		*h.dead = true
	}
}

// Cancelled reports whether the event was cancelled or already executed (a
// zero Handle reports true).
func (h Handle) Cancelled() bool { return h.dead == nil || *h.dead }

// Stop makes Run and RunUntil return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// step executes the earliest pending event. It reports false when the queue
// is empty.
func (e *Engine) step() bool {
	if len(e.q) == 0 {
		return false
	}
	ev := e.pop()
	if ev.at < e.now {
		panic(fmt.Sprintf("sim: time went backwards: %v < %v", ev.at, e.now))
	}
	e.now = ev.at
	e.executed++
	ev.fn()
	return true
}

// Step executes the earliest pending event and reports false when the
// queue is empty. It is the single-event form of Run, exposed for callers
// that meter execution externally (the steady-state benchmarks step a
// long-running transfer one event per iteration).
func (e *Engine) Step() bool { return e.step() }

// Run executes events until the queue drains or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to deadline (even if the queue drained earlier or holds only later
// events).
func (e *Engine) RunUntil(deadline Time) { e.RunUntilDone(deadline, nil) }

// RunUntilDone is RunUntil that also returns as soon as done reports true.
// done is consulted before every event, so it sees the state between
// events; when it ends the run the clock stays where it is. A nil done never
// ends the run early.
func (e *Engine) RunUntilDone(deadline Time, done func() bool) {
	e.stopped = false
	for !e.stopped {
		if done != nil && done() {
			return
		}
		if len(e.q) == 0 || e.q[0].at > deadline {
			break
		}
		e.step()
	}
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
}

// RunFor executes events for d of virtual time from now.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }

// Timer is a restartable one-shot timer bound to an engine, analogous to
// time.Timer but on the virtual clock.
//
// Reset is cheap: moving the deadline later (the common case for TCP
// retransmission timers, re-armed on every ACK) does not touch the event
// queue; the pending firing re-arms itself when it finds the deadline has
// moved.
type Timer struct {
	eng      *Engine
	fn       Event
	deadline Time
	fireAt   Time
	gen      uint64
	armed    bool
	stopped  bool
}

// NewTimer returns a stopped timer that will run fn when it fires.
func NewTimer(eng *Engine, fn Event) *Timer {
	if fn == nil {
		panic("sim: nil timer callback")
	}
	return &Timer{eng: eng, fn: fn, stopped: true}
}

// Reset (re)arms the timer to fire after delay, superseding any pending
// firing.
func (t *Timer) Reset(delay Time) {
	t.deadline = t.eng.now + delay
	t.stopped = false
	if !t.armed || t.fireAt > t.deadline {
		t.schedule(t.deadline)
	}
}

func (t *Timer) schedule(at Time) {
	t.gen++
	g := t.gen
	t.fireAt = at
	t.armed = true
	t.eng.At(at, func() { t.onFire(g) })
}

func (t *Timer) onFire(g uint64) {
	if g != t.gen {
		return // superseded by a later schedule
	}
	t.armed = false
	if t.stopped {
		return
	}
	if t.eng.now < t.deadline {
		// Deadline moved later since this firing was scheduled.
		t.schedule(t.deadline)
		return
	}
	t.stopped = true
	t.fn()
}

// Stop disarms the timer.
func (t *Timer) Stop() { t.stopped = true }

// Armed reports whether the timer has a pending firing.
func (t *Timer) Armed() bool { return !t.stopped }
