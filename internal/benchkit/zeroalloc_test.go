package benchkit

import (
	"testing"
	"time"

	"tcpsig/internal/netem"
	"tcpsig/internal/obs"
	"tcpsig/internal/sim"
)

// TestZeroAllocContracts is the exact half of the repo's one allocation
// gate: the designated hot paths must report zero allocations per
// operation through the same testing.Benchmark machinery that produces the
// perf-trajectory artifact. This is deliberately stricter than the
// benchdiff budget, which only bounds fractional growth — for these paths
// the baseline is zero and must stay zero.
//
// Besides the registered bodies, the helpers run here with extra inputs
// that reach hot functions the registered topologies never execute: a RED
// queue marking ECN (with tracing, so marks are recorded), a token-bucket
// shaper, two flows through a router whose jittered ACK path delivers
// same-instant bursts through the batch path, and the stream pump's
// steady-state Feed, slab hand-offs included. They are not registered, so
// the committed BENCH baseline keeps its bodies.
func TestZeroAllocContracts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs benchmarks to measurement length")
	}
	registered := map[string]func(*testing.B){}
	for _, bm := range All() {
		registered[bm.Name] = bm.Fn
	}
	contracts := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"EngineEvents", registered["EngineEvents"]},
		{"NetemEnqueue", registered["NetemEnqueue"]},
		{"NetemEnqueueTraced", registered["NetemEnqueueTraced"]},
		{"SenderStep", registered["SenderStep"]},
		{"SenderStepTraced", registered["SenderStepTraced"]},
		{"NetemEnqueueREDTraced", func(b *testing.B) {
			netemEnqueue(b, &obs.Sink{Trace: obs.NewTracer(0)}, redLink)
		}},
		{"NetemEnqueueShaped", func(b *testing.B) { netemEnqueue(b, nil, shapedLink) }},
		{"SenderStepRoutedTraced", func(b *testing.B) { senderStep(b, true, true) }},
		{"PumpFeed", pumpFeed},
	}
	for _, c := range contracts {
		name, fn := c.name, c.fn
		if fn == nil {
			t.Errorf("zero-alloc benchmark %q missing from the registry", name)
			continue
		}
		t.Run(name, func(t *testing.T) {
			reps := Measure(fn, RunOptions{Reps: 1, MinTime: 200 * time.Millisecond, MaxReps: 3})
			best := Best(reps)
			if best.AllocsPerOp != 0 {
				t.Errorf("%s allocates %d allocs/op (%d B/op), want 0 — a pooled hot path regressed",
					name, best.AllocsPerOp, best.BytesPerOp)
			}
		})
	}
}

// redLink is a gigabit RED link tuned so each 256-packet burst crosses
// both thresholds: the EWMA weight is raised so the average follows the
// burst, and ECN turns early drops into marks.
func redLink(eng *sim.Engine) netem.LinkConfig {
	q := netem.NewRED(eng, 1<<20, 64<<10, 256<<10, 0.1, 1e9)
	q.Weight = 0.05
	q.ECN = true
	return netem.LinkConfig{RateBps: 1e9, Queue: q}
}

// shapedLink meters the gigabit drop-tail link through a token bucket
// slower than the line rate, so every burst waits for tokens.
func shapedLink(*sim.Engine) netem.LinkConfig {
	return netem.LinkConfig{RateBps: 1e9, Queue: netem.NewDropTail(1 << 20), Bucket: netem.NewTokenBucket(500e6, 5000)}
}
