package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	e.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	e.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != 30*time.Millisecond {
		t.Fatalf("clock = %v, want 30ms", e.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Millisecond, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break not FIFO: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine(1)
	ran := false
	h := e.ScheduleHandle(time.Millisecond, func() { ran = true })
	h.Cancel()
	e.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
	if !h.Cancelled() {
		t.Fatal("handle should report cancelled")
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	var ticks int
	var tick func()
	tick = func() {
		ticks++
		if ticks < 5 {
			e.Schedule(time.Second, tick)
		}
	}
	e.Schedule(0, tick)
	e.Run()
	if ticks != 5 {
		t.Fatalf("ticks = %d, want 5", ticks)
	}
	if e.Now() != 4*time.Second {
		t.Fatalf("clock = %v, want 4s", e.Now())
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	var got []time.Duration
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		d := d
		e.Schedule(d, func() { got = append(got, d) })
	}
	e.RunUntil(2 * time.Second)
	if len(got) != 2 {
		t.Fatalf("ran %d events, want 2", len(got))
	}
	if e.Now() != 2*time.Second {
		t.Fatalf("clock = %v, want 2s", e.Now())
	}
	e.Run()
	if len(got) != 3 {
		t.Fatalf("remaining event not run")
	}
}

func TestRunUntilDone(t *testing.T) {
	e := NewEngine(1)
	n := 0
	for i := 1; i <= 5; i++ {
		e.Schedule(time.Duration(i)*time.Second, func() { n++ })
	}
	// done is checked between events: it ends the run right after the
	// third, without advancing the clock to the deadline.
	e.RunUntilDone(10*time.Second, func() bool { return n == 3 })
	if n != 3 || e.Now() != 3*time.Second {
		t.Fatalf("stopped after %d events at %v, want 3 at 3s", n, e.Now())
	}
	// A done that never holds behaves as RunUntil: the clock lands on the
	// deadline with later events still queued.
	e.RunUntilDone(4500*time.Millisecond, func() bool { return false })
	if n != 4 || e.Now() != 4500*time.Millisecond {
		t.Fatalf("ran %d events, clock %v; want 4 at 4.5s", n, e.Now())
	}
}

func TestRunUntilAdvancesEmptyClock(t *testing.T) {
	e := NewEngine(1)
	e.RunUntil(5 * time.Second)
	if e.Now() != 5*time.Second {
		t.Fatalf("clock = %v, want 5s", e.Now())
	}
}

func TestRunForRelative(t *testing.T) {
	e := NewEngine(1)
	e.RunFor(time.Second)
	e.RunFor(time.Second)
	if e.Now() != 2*time.Second {
		t.Fatalf("clock = %v, want 2s", e.Now())
	}
}

func TestStop(t *testing.T) {
	e := NewEngine(1)
	var n int
	for i := 0; i < 10; i++ {
		e.Schedule(time.Duration(i)*time.Millisecond, func() {
			n++
			if n == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if n != 3 {
		t.Fatalf("ran %d events after Stop, want 3", n)
	}
	e.Run()
	if n != 10 {
		t.Fatalf("Run after Stop should resume; ran %d", n)
	}
}

func TestNegativeDelayClamps(t *testing.T) {
	e := NewEngine(1)
	e.RunUntil(time.Second)
	ran := false
	e.Schedule(-time.Hour, func() { ran = true })
	e.Run()
	if !ran {
		t.Fatal("clamped event did not run")
	}
	if e.Now() != time.Second {
		t.Fatalf("clock moved backwards: %v", e.Now())
	}
}

func TestTimerResetStop(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	tm := NewTimer(e, func() { fired++ })
	tm.Reset(time.Second)
	tm.Reset(2 * time.Second) // supersedes first arming
	e.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if e.Now() != 2*time.Second {
		t.Fatalf("fired at %v, want 2s", e.Now())
	}
	tm.Reset(time.Second)
	tm.Stop()
	e.Run()
	if fired != 1 {
		t.Fatal("stopped timer fired")
	}
	if tm.Armed() {
		t.Fatal("stopped timer reports armed")
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	run := func(seed int64) []int64 {
		e := NewEngine(seed)
		var out []int64
		var step func()
		step = func() {
			v := e.Rand().Int63n(1000)
			out = append(out, v)
			if len(out) < 50 {
				e.Schedule(time.Duration(v)*time.Microsecond, step)
			}
		}
		e.Schedule(0, step)
		e.Run()
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

// Property: for any batch of delays, events execute in sorted order and the
// final clock equals the maximum delay.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(delaysMs []uint16) bool {
		if len(delaysMs) == 0 {
			return true
		}
		e := NewEngine(7)
		var got []time.Duration
		var max time.Duration
		for _, ms := range delaysMs {
			d := time.Duration(ms) * time.Millisecond
			if d > max {
				max = d
			}
			e.Schedule(d, func() { got = append(got, e.Now()) })
		}
		e.Run()
		if len(got) != len(delaysMs) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				return false
			}
		}
		return e.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestExecutedCount(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 17; i++ {
		e.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	e.Run()
	if e.Executed() != 17 {
		t.Fatalf("Executed = %d, want 17", e.Executed())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", e.Pending())
	}
}
