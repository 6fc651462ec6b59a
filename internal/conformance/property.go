package conformance

import (
	"fmt"
	"math/rand"
	"time"

	"tcpsig/internal/flowrtt"
	"tcpsig/internal/netem"
	"tcpsig/internal/sim"
	"tcpsig/internal/tcpsim"
)

// Scenario is one randomized single-bottleneck run the property harness
// checks TCP/netem physical invariants on. The congestion controller is
// always Reno: the slow-start window law the harness asserts is
// Reno-specific (the CC-ablation check covers the other controllers).
type Scenario struct {
	Name string

	RateMbps    float64
	Delay       time.Duration // one-way propagation, each direction
	Jitter      time.Duration
	Loss        float64 // forward-path random loss probability
	BufferDepth time.Duration
	RED         bool
	ECN         bool

	Duration time.Duration
	Seed     int64

	// CheckDoubling additionally asserts the slow-start doubling cadence;
	// only sound on a clean scenario (no loss, deep buffer).
	CheckDoubling bool
}

// ScenarioResult reports one run's invariant outcome plus the capture, so
// metamorphic checks can reuse the clean scenario's trace.
type ScenarioResult struct {
	Name       string
	Violations []string

	CwndSamples int
	RTTSamples  int
	Quiescent   bool

	Records []netem.CaptureRecord
	Flow    netem.FlowKey
}

// GenScenarios derives n seeded scenarios spanning the paper's parameter
// ranges: access rates, propagation delays, jitter, shallow-to-deep
// buffers, occasional random loss, and both queue disciplines.
func GenScenarios(seed int64, n int) []Scenario {
	rng := rand.New(rand.NewSource(seed))
	rates := []float64{10, 20, 50}
	buffers := []time.Duration{20 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond}
	out := make([]Scenario, 0, n)
	for i := 0; i < n; i++ {
		sc := Scenario{
			RateMbps:    rates[rng.Intn(len(rates))],
			Delay:       time.Duration(5+rng.Intn(40)) * time.Millisecond,
			Jitter:      time.Duration(rng.Intn(3)) * time.Millisecond,
			BufferDepth: buffers[rng.Intn(len(buffers))],
			Duration:    3 * time.Second,
			Seed:        seed*1000 + int64(i),
		}
		if rng.Float64() < 0.2 {
			sc.Loss = 0.005
		}
		if rng.Float64() < 0.25 {
			sc.RED = true
			sc.ECN = rng.Float64() < 0.5
		}
		sc.Name = fmt.Sprintf("s%d-%.0fmbps-d%dms-b%dms-loss%.3f-red%v-ecn%v",
			i, sc.RateMbps, sc.Delay/time.Millisecond, sc.BufferDepth/time.Millisecond,
			sc.Loss, sc.RED, sc.ECN)
		out = append(out, sc)
	}
	return out
}

// CleanScenario is the dedicated loss-free deep-buffer run the doubling
// cadence and trace metamorphics use.
func CleanScenario(seed int64) Scenario {
	return Scenario{
		Name:          "clean-50mbps",
		RateMbps:      50,
		Delay:         20 * time.Millisecond,
		BufferDepth:   100 * time.Millisecond,
		Duration:      4 * time.Second,
		Seed:          seed,
		CheckDoubling: true,
	}
}

type cwndSample struct {
	at       sim.Time
	cwnd     float64
	acked    int64
	slow     bool
	sawLoss  bool
	ecnCount uint64
}

// RunScenario emulates the scenario and checks the physical invariants:
//
//   - every measured RTT ≥ 2×(Delay − Jitter): nothing travels faster than
//     the propagation floor;
//   - Reno slow start pre-loss: cwnd starts at the initial window, never
//     shrinks, and tracks IW + bytesAcked (the integral form of
//     doubling-per-RTT, exact for the min(acked, 2·MSS) growth rule);
//   - with CheckDoubling, cwnd crosses consecutive powers of two of IW
//     within a bounded number of (buffer-inflated) round trips;
//   - packet conservation per link: delivered + drops ≤ sent + duplicated,
//     with equality once the simulation fully drains;
//   - buffer bound: queue occupancy high-water mark never exceeds the
//     configured capacity.
func RunScenario(sc Scenario) (*ScenarioResult, error) {
	eng := sim.NewEngine(sc.Seed)
	net := netem.New(eng)
	server := net.NewHost("server")
	client := net.NewHost("client")

	rate := sc.RateMbps * 1e6
	capBytes := netem.BufferBytes(rate, sc.BufferDepth)
	var q netem.Queue
	if sc.RED {
		red := netem.NewRED(eng, capBytes, capBytes/4, capBytes*3/4, 0.1, rate)
		red.ECN = sc.ECN
		q = red
	} else {
		q = netem.NewDropTail(capBytes)
	}
	fwd, rev := net.Connect(server, client,
		netem.LinkConfig{RateBps: rate, Delay: sc.Delay, Jitter: sc.Jitter, Loss: sc.Loss, Queue: q},
		netem.LinkConfig{RateBps: 100e6, Delay: sc.Delay, Jitter: sc.Jitter})
	net.ComputeRoutes()

	capt := server.EnableCapture()
	dl := tcpsim.StartDownload(client, server, 40000, 80, tcpsim.Config{}, 0, sc.Duration)

	var samples []cwndSample
	stop := sim.Time(sc.Duration)
	var tick func()
	tick = func() {
		if s := dl.Sender(); s != nil {
			st := s.Stats()
			samples = append(samples, cwndSample{
				at:       eng.Now(),
				cwnd:     s.CC().Cwnd(),
				acked:    st.BytesAcked,
				slow:     s.InSlowStart(),
				sawLoss:  st.SawLoss,
				ecnCount: st.ECNReductions,
			})
		}
		if eng.Now() < stop {
			eng.Schedule(2*time.Millisecond, tick)
		}
	}
	eng.Schedule(2*time.Millisecond, tick)

	// A fixed drain, not Download.RunUntilFinal: packet conservation and
	// the queue peak are checked over a network that has fully emptied,
	// which a run stopped once the capture is final does not guarantee.
	eng.RunFor(sim.Time(sc.Duration) + 5*time.Second)
	if eng.Pending() > 0 {
		eng.RunFor(60 * time.Second)
	}
	quiescent := eng.Pending() == 0

	res := &ScenarioResult{Name: sc.Name, CwndSamples: len(samples), Quiescent: quiescent, Records: capt.Records}
	fail := func(format string, args ...any) {
		res.Violations = append(res.Violations, sc.Name+": "+fmt.Sprintf(format, args...))
	}

	// RTT floor.
	flows := flowrtt.Flows(capt.Records)
	if len(flows) == 0 {
		fail("capture recorded no flows")
		return res, nil
	}
	res.Flow = flows[0]
	info, err := flowrtt.Analyze(capt.Records, flows[0])
	if err != nil {
		fail("flow analysis failed: %v", err)
		return res, nil
	}
	res.RTTSamples = len(info.Samples)
	minRTT := 2 * (sc.Delay - sc.Jitter)
	if minRTT < 0 {
		minRTT = 0
	}
	for _, s := range info.Samples {
		if s.RTT < minRTT-100*time.Microsecond {
			fail("RTT sample %v below propagation floor %v", s.RTT, minRTT)
			break
		}
	}

	checkCwndLaw(sc, samples, fail)
	if sc.CheckDoubling {
		checkDoubling(sc, samples, fail)
	}

	// Conservation and buffer bound on every link.
	for _, l := range net.Links() {
		st := l.Stats()
		accounted := st.Delivered + st.QueueDrops + st.LossDrops + st.FaultDrops
		ceiling := st.Sent + st.Duplicated
		if accounted > ceiling {
			fail("link %s over-accounts packets: delivered+drops=%d > sent+dup=%d", l.Name, accounted, ceiling)
		}
		if quiescent && accounted != ceiling {
			fail("link %s leaked packets at quiescence: delivered+drops=%d != sent+dup=%d", l.Name, accounted, ceiling)
		}
		if pq, ok := l.Queue().(netem.PeakQueue); ok && pq.Capacity() > 0 && pq.Peak() > pq.Capacity() {
			fail("link %s queue peaked at %d bytes, capacity %d", l.Name, pq.Peak(), pq.Capacity())
		}
	}
	_ = fwd
	_ = rev
	return res, nil
}

// checkCwndLaw asserts the Reno slow-start window law on every pre-loss
// sample: IW ≤ cwnd ≤ IW + bytesAcked (+slack), and cwnd never shrinks.
func checkCwndLaw(sc Scenario, samples []cwndSample, fail func(string, ...any)) {
	const mss = tcpsim.DefaultMSS
	iw := float64(tcpsim.InitialWindowSegments * mss)
	slack := 2.0 * mss
	prev := -1.0
	for _, s := range samples {
		if !s.slow || s.sawLoss || s.ecnCount > 0 {
			break
		}
		if s.cwnd < iw-0.5 {
			fail("slow-start cwnd %.0f below initial window %.0f", s.cwnd, iw)
			return
		}
		if hi := iw + float64(s.acked) + slack; s.cwnd > hi {
			fail("slow-start cwnd %.0f exceeds IW+acked bound %.0f (acked=%d)", s.cwnd, hi, s.acked)
			return
		}
		if s.cwnd < prev {
			fail("slow-start cwnd shrank from %.0f to %.0f without loss", prev, s.cwnd)
			return
		}
		prev = s.cwnd
	}
}

// checkDoubling asserts the temporal doubling cadence on a clean scenario:
// each crossing of 2^k × IW happens within 2.5 buffer-inflated round trips
// of the previous one. Linear (congestion-avoidance-like) growth would take
// hundreds of round trips per doubling and fails immediately.
func checkDoubling(sc Scenario, samples []cwndSample, fail func(string, ...any)) {
	iw := float64(tcpsim.InitialWindowSegments * tcpsim.DefaultMSS)
	maxRTT := 2*sc.Delay + 2*sc.Jitter + sc.BufferDepth
	bound := sim.Time(5 * maxRTT / 2)
	target := 2 * iw
	var last sim.Time
	crossings := 0
	for _, s := range samples {
		if !s.slow || s.sawLoss {
			break
		}
		for s.cwnd >= target {
			if last > 0 && s.at-last > bound {
				fail("cwnd took %v to double to %.0f, bound %v", s.at-last, target, time.Duration(bound))
				return
			}
			last = s.at
			target *= 2
			crossings++
		}
	}
	if crossings < 2 {
		fail("slow start never doubled twice (crossings=%d, samples=%d)", crossings, len(samples))
	}
}
