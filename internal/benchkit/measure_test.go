package benchkit

import (
	"math"
	"testing"
	"time"
)

// trivialBody is a near-free benchmark body so repeated testing.Benchmark
// runs stay cheap inside the test.
func trivialBody(b *testing.B) {
	x := 0
	for i := 0; i < b.N; i++ {
		x += i
	}
	if x < 0 {
		b.Fatal("unreachable")
	}
}

func TestMeasureReps(t *testing.T) {
	reps := Measure(trivialBody, RunOptions{Reps: 3})
	if len(reps) != 3 {
		t.Fatalf("got %d reps, want 3", len(reps))
	}
	for i, r := range reps {
		if r.N <= 0 || r.NsPerOp < 0 {
			t.Errorf("rep %d implausible: %+v", i, r)
		}
	}
	best := Best(reps)
	for _, r := range reps {
		if r.NsPerOp < best.NsPerOp {
			t.Errorf("Best missed a faster rep: %v < %v", r.NsPerOp, best.NsPerOp)
		}
	}
}

func TestMeasureDefaultsToOneRep(t *testing.T) {
	if got := len(Measure(trivialBody, RunOptions{})); got != 1 {
		t.Fatalf("got %d reps, want 1", got)
	}
}

func TestMeasureMinTimeAddsReps(t *testing.T) {
	// Measure's contract for a MinTime floor: it keeps adding reps while
	// the measured time is under the floor, and stops at the first rep
	// that reaches it. How many reps that takes depends on how long each
	// testing.Benchmark run lasts, which varies (the race detector, a
	// loaded machine), so the test checks the sums, not a count.
	const minTime = 2500 * time.Millisecond
	reps := Measure(trivialBody, RunOptions{Reps: 1, MinTime: minTime})
	measured := func(reps []Rep) time.Duration {
		var sum time.Duration
		for _, r := range reps {
			sum += time.Duration(math.Round(r.NsPerOp * float64(r.N)))
		}
		return sum
	}
	if before := measured(reps[:len(reps)-1]); before >= minTime {
		t.Fatalf("reps before the last measured %v, want < %v (a rep too many)", before, minTime)
	}
	if all := measured(reps); all < minTime {
		t.Fatalf("%d reps measured %v, want >= %v", len(reps), all, minTime)
	}
}

func TestMeasureMaxRepsCapsMinTime(t *testing.T) {
	reps := Measure(trivialBody, RunOptions{Reps: 1, MinTime: time.Hour, MaxReps: 2})
	if len(reps) != 2 {
		t.Fatalf("got %d reps, want MaxReps cap of 2", len(reps))
	}
}
