package testbed

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"tcpsig/internal/faults"
	"tcpsig/internal/netem"
	"tcpsig/internal/sim"
)

// outageFrom drops every packet the faulted link transmits from virtual
// time at onwards: the test flow's FIN never arrives, so the flow can never
// close.
type outageFrom struct{ at sim.Time }

func (o outageFrom) OnTransmit(now sim.Time, _ *netem.Packet) netem.FaultAction {
	return netem.FaultAction{Drop: now >= o.at}
}

// runEndCase is one configuration of TestRunEndsWhenCaptureFinal, run at
// seeds cfg.Seed .. cfg.Seed+seeds-1 (one seed when seeds is 0).
type runEndCase struct {
	name       string
	cfg        Config
	seeds      int64
	unpooled   bool
	neverFinal bool // the flow cannot close: every run must end at its deadline
}

func runEndCases() []runEndCase {
	base := selfCfg(11)
	base.Duration = 3 * time.Second
	ext := base
	ext.CongFlows = 100
	ext.WarmUp = 2 * time.Second
	red := base
	red.RED = true
	ecn := base
	ecn.ECN = true

	// Under RED some flows are still in timeout recovery 5 s after the
	// test (an inflated SRTT backs the RTO off past the deadline), so the
	// AQM cases run several seeds: each must end early at least once.
	cases := []runEndCase{
		{name: "self", cfg: base},
		{name: "external", cfg: ext},
		{name: "red", cfg: red, seeds: 4},
		{name: "red-ecn", cfg: ecn, seeds: 4},
	}
	for _, r := range DefaultFaultRegimes() {
		if r.Factory == nil {
			continue // clean is the self case
		}
		c := base
		c.Faults = r.Factory
		cases = append(cases, runEndCase{name: "faults-" + r.Name, cfg: c})
		if r.Name == "storm" {
			// Loss, reordering and duplication at once, unpooled.
			cases = append(cases, runEndCase{name: "unpooled-storm", cfg: c, unpooled: true})
		}
	}

	// Every packet duplicated, the FIN too: the receiver re-ACKs the
	// duplicate FIN after it is done, so the sender closes while that ACK
	// is still on its way to the capture.
	dupAll := base
	dupAll.Faults = func(seed int64) netem.FaultInjector { return faults.NewDuplicate(seed, 1) }
	cases = append(cases, runEndCase{name: "duplicate-every-packet", cfg: dupAll})

	never := base
	cut := 200*time.Millisecond + base.Duration - time.Second // default WarmUp + 2 s of the test
	never.Faults = func(int64) netem.FaultInjector { return outageFrom{at: cut} }
	cases = append(cases, runEndCase{name: "never-final", cfg: never, neverFinal: true})
	return cases
}

// TestRunEndsWhenCaptureFinal proves that ending a run once the server
// capture is final loses nothing. Each run happens twice with the same seed:
// once as Run does, and once through the run seam, which keeps stepping the
// same engine from where Run stopped to the run's old fixed end, Duration +
// 5 s after the test starts. The server capture must gain no record in that
// tail and the Result must not change. A flow that cannot close must run to
// that deadline and no further.
func TestRunEndsWhenCaptureFinal(t *testing.T) {
	for _, tc := range runEndCases() {
		t.Run(tc.name, func(t *testing.T) {
			if tc.unpooled {
				defer netem.SetDefaultPooling(netem.SetDefaultPooling(false))
			}
			seeds := max(tc.seeds, 1)
			ended := 0
			for i := int64(0); i < seeds; i++ {
				cfg := tc.cfg
				cfg.Seed += i
				if checkRunEnd(t, cfg) {
					ended++
				}
			}
			switch {
			case tc.neverFinal && ended > 0:
				t.Fatalf("%d of %d runs ended before the deadline, but the flow cannot close", ended, seeds)
			case !tc.neverFinal && ended == 0:
				t.Fatalf("no run of %d ended before its deadline: the capture never became final", seeds)
			}
		})
	}
}

// checkRunEnd runs cfg both ways and fails t unless the capture and the
// Result are the same. It reports whether the run ended before its
// deadline.
func checkRunEnd(t *testing.T, cfg Config) bool {
	t.Helper()
	var early, late *netem.Capture
	cfg.Capture = func(c *netem.Capture) { early = c }
	want, wantErr := Run(cfg)

	var stoppedAt, deadline sim.Time
	var tailEvents uint64
	cfg.Capture = func(c *netem.Capture) { late = c }
	got, gotErr := run(cfg, func(eng *sim.Engine, dl sim.Time) {
		stoppedAt, deadline = eng.Now(), dl
		n := eng.Executed()
		eng.RunUntil(dl)
		tailEvents = eng.Executed() - n
	})

	if stoppedAt > deadline {
		t.Fatalf("seed %d: run ended at %v, past its deadline %v", cfg.Seed, stoppedAt, deadline)
	}
	if stoppedAt < deadline && tailEvents == 0 {
		t.Fatalf("seed %d: the tail to the old deadline executed no events; the comparison proves nothing", cfg.Seed)
	}
	if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
		t.Fatalf("seed %d: error changed: %v, after the tail %v", cfg.Seed, wantErr, gotErr)
	}
	if early == nil || late == nil {
		t.Fatalf("seed %d: capture hook not called", cfg.Seed)
	}
	if len(late.Records) != len(early.Records) {
		t.Fatalf("seed %d: capture gained %d records after the run ended at %v",
			cfg.Seed, len(late.Records)-len(early.Records), stoppedAt)
	}
	if !reflect.DeepEqual(late.Records, early.Records) {
		t.Fatalf("seed %d: capture records differ after the tail", cfg.Seed)
	}
	if wantErr == nil {
		w, g := normResult(want), normResult(got)
		w.Config.Capture, g.Config.Capture = nil, nil
		if !reflect.DeepEqual(w, g) {
			t.Fatalf("seed %d: Result changed after the tail:\n ran to final: %+v\n ran to deadline: %+v", cfg.Seed, w, g)
		}
	}
	t.Logf("seed %d: ended %v before the deadline; %d events skipped", cfg.Seed, deadline-stoppedAt, tailEvents)
	return stoppedAt < deadline
}
