package tcpsig

import (
	"encoding/json"
	"testing"
	"time"

	"tcpsig/internal/netem"
	"tcpsig/internal/sim"
	"tcpsig/internal/stream"
	"tcpsig/internal/tcpsim"
)

// goldenCapture emulates `flows` concurrent downloads through a shared
// 20 Mbps bottleneck and returns the server-side capture. The shared queue
// guarantees at least the early flows see self-induced loss, so the capture
// exercises both the early-emission path (retransmitting flows) and the
// flush path (flows whose slow start never ends).
func goldenCapture(t *testing.T, seed int64, flows int) *netem.Capture {
	t.Helper()
	eng := sim.NewEngine(seed)
	net := netem.New(eng)
	client := net.NewHost("client")
	server := net.NewHost("server")
	q := netem.NewDropTailDepth(20e6, 100*time.Millisecond)
	net.Connect(server, client,
		netem.LinkConfig{RateBps: 20e6, Delay: 20 * time.Millisecond, Queue: q},
		netem.LinkConfig{RateBps: 1e9, Delay: 20 * time.Millisecond})
	capt := server.EnableCapture()
	for i := 0; i < flows; i++ {
		start := time.Duration(i) * 300 * time.Millisecond
		eng.At(start, func() {
			tcpsim.StartDownload(client, server, netem.Port(40000+i), netem.Port(80+i),
				tcpsim.Config{}, 0, 5*time.Second)
		})
	}
	eng.Run()
	if len(capt.Records) == 0 {
		t.Fatal("empty golden capture")
	}
	return capt
}

// stableVerdict is the slow-start-stable projection of a verdict — the same
// field set `ccsig serve` streams as NDJSON. Encoding both the batch and
// the streaming-early verdict through it makes the equivalence check
// byte-level, not just field-by-field.
type stableVerdict struct {
	Class               int     `json:"class"`
	Confidence          float64 `json:"confidence"`
	Reason              string  `json:"reason"`
	NormDiff            float64 `json:"normdiff"`
	CoV                 float64 `json:"cov"`
	Samples             int     `json:"samples"`
	MinRTT              int64   `json:"min_rtt"`
	MaxRTT              int64   `json:"max_rtt"`
	SlowStartBytesAcked int64   `json:"slow_start_bytes_acked"`
	HasRetransmit       bool    `json:"has_retransmit"`
	FirstRetransmitAt   int64   `json:"first_retransmit_at"`
	Err                 string  `json:"err"`
}

func stableBytes(t *testing.T, v Verdict, err error) []byte {
	t.Helper()
	sv := stableVerdict{
		Class:      v.Class,
		Confidence: v.Confidence,
		Reason:     string(v.Reason),
		NormDiff:   v.Features.NormDiff,
		CoV:        v.Features.CoV,
		Samples:    v.Features.Samples,
		MinRTT:     int64(v.Features.MinRTT),
		MaxRTT:     int64(v.Features.MaxRTT),
	}
	if v.Flow != nil {
		sv.SlowStartBytesAcked = v.Flow.SlowStartBytesAcked
		sv.HasRetransmit = v.Flow.HasRetransmit
		sv.FirstRetransmitAt = int64(v.Flow.FirstRetransmitAt)
	}
	if err != nil {
		sv.Err = err.Error()
	}
	b, merr := json.Marshal(sv)
	if merr != nil {
		t.Fatal(merr)
	}
	return b
}

// TestStreamingEarlyMatchesBatchOnGoldenCapture is the tier-1 equivalence
// gate for the streaming core: on emulated golden captures, verdicts
// emitted the moment a flow's slow start ends must be byte-identical (in
// their slow-start-stable projection) to the batch path's verdicts for the
// same flows.
func TestStreamingEarlyMatchesBatchOnGoldenCapture(t *testing.T) {
	for _, tc := range []struct {
		name  string
		seed  int64
		flows int
	}{
		{"single-flow", 41, 1},
		{"multi-flow", 43, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			capt := goldenCapture(t, tc.seed, tc.flows)
			c := toyClassifier(t)

			// The per-flow whole-trace path, not tcpsig.ClassifyCapture:
			// that one takes the early path too.
			batchVerdicts, batchErrs := c.inner.ClassifyCapture(capt)

			early := make(map[netem.FlowKey]stream.FlowResult)
			sawEarly := 0
			table := stream.NewTable(stream.Config{
				Classifier: c.inner,
				Emit: func(res stream.FlowResult) {
					if _, dup := early[res.Flow]; dup {
						t.Errorf("duplicate verdict for %v", res.Flow)
					}
					early[res.Flow] = res
					if res.Early {
						sawEarly++
					}
				},
			})
			for i := range capt.Records {
				table.Observe(&capt.Records[i])
			}
			table.Flush()

			if len(early) != tc.flows {
				t.Fatalf("streaming emitted %d verdicts, want %d", len(early), tc.flows)
			}
			if sawEarly == 0 {
				t.Fatal("no early emission on a capture with self-induced loss; fixture lost its retransmissions")
			}
			for flow, res := range early {
				bv, ok := batchVerdicts[flow]
				if !ok {
					// Batch drops Class<0 flows from the verdict map but
					// records the error; the streaming result must agree.
					if res.Verdict.Class >= 0 {
						t.Fatalf("flow %v: streaming classified (%d) but batch has no verdict", flow, res.Verdict.Class)
					}
					bv = res.Verdict
				}
				got := stableBytes(t, res.Verdict, res.Err)
				want := stableBytes(t, bv, batchErrs[flow])
				if string(got) != string(want) {
					t.Errorf("flow %v verdict diverged\nstreaming: %s\nbatch:     %s", flow, got, want)
				}
			}
		})
	}
}
