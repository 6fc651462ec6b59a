package tcpsig

import (
	"bytes"
	"errors"
	"reflect"
	"sort"
	"testing"
	"time"

	"tcpsig/internal/flowrtt"
	"tcpsig/internal/netem"
	"tcpsig/internal/pcap"
	"tcpsig/internal/sim"
	"tcpsig/internal/stream"
)

// The batch entry points classify on the streaming table's early path, the
// same configuration `ccsig serve` runs, so "serve ≡ classify" no longer
// proves that an early verdict equals a whole-trace one. The tests here
// keep an independent reference: each flow analyzed over the whole decoded
// trace, one flow at a time (core's ClassifyTrace and flowrtt.Analyze).

// renderPcap writes capt as a libpcap stream and returns it with the
// server's dotted-quad address, taken from the first outgoing record.
func renderPcap(t *testing.T, capt *netem.Capture) ([]byte, string) {
	t.Helper()
	var buf bytes.Buffer
	if err := pcap.NewWriter(&buf).WriteCapture(capt); err != nil {
		t.Fatal(err)
	}
	for i := range capt.Records {
		if capt.Records[i].Dir == netem.DirOut {
			return buf.Bytes(), ipString(pcap.ServerIP(capt.Records[i].Pkt.Flow.SrcAddr))
		}
	}
	t.Fatal("capture has no outgoing record")
	return nil, ""
}

// decodeRecords is the reference decode: the whole trace read into memory,
// independent of any flow table. It returns what could be read along with
// the read error, if any.
func decodeRecords(t *testing.T, raw []byte, server string) ([]netem.CaptureRecord, error) {
	t.Helper()
	ip, err := parseIPv4(server)
	if err != nil {
		t.Fatal(err)
	}
	recs, rerr := pcap.ReadAll(bytes.NewReader(raw))
	return pcap.ToCapture(recs, ip).Records, rerr
}

// retxFlow is one synthetic download: rounds of one data segment and its
// ACK, with RTTs growing 2 ms a round. When retxAfter > 0, the segment of
// round 2 is sent again after that many rounds, and tail more rounds
// follow the retransmission.
type retxFlow struct {
	port      netem.Port
	start     time.Duration
	rounds    int
	retxAfter int
	tail      int
}

// outOfOrderCapture builds a capture whose early verdicts arrive out of
// first-appearance order: the first flow never retransmits (its verdict
// comes at EOF), the second retransmits first, the third later. Each flow
// keeps sending after its retransmission, so its whole-trace analysis runs
// past the early verdict.
func outOfOrderCapture() *netem.Capture {
	flows := []retxFlow{
		{port: 40000, start: 0, rounds: 20},
		{port: 40001, start: time.Millisecond, rounds: 12, retxAfter: 12, tail: 6},
		{port: 40002, start: 2 * time.Millisecond, rounds: 14, retxAfter: 14, tail: 3},
	}
	capt := &netem.Capture{}
	for _, f := range flows {
		flow := netem.FlowKey{SrcAddr: 2, DstAddr: 1, SrcPort: 80, DstPort: f.port}
		data := func(at sim.Time, seq uint32) {
			capt.Records = append(capt.Records, netem.CaptureRecord{At: at, Dir: netem.DirOut, Pkt: netem.Packet{
				Flow: flow,
				Seg:  netem.Segment{Seq: seq, Flags: netem.FlagACK, PayloadLen: 1460},
				Size: 1460 + netem.HeaderBytes,
			}})
		}
		seq := uint32(1000)
		at := sim.Time(f.start)
		for i := 0; i < f.rounds+f.tail; i++ {
			if f.retxAfter > 0 && i == f.retxAfter {
				data(at, 1000+2*1460)
			}
			data(at, seq)
			rtt := 20*time.Millisecond + time.Duration(i)*2*time.Millisecond
			seq += 1460
			capt.Records = append(capt.Records, netem.CaptureRecord{At: at + sim.Time(rtt), Dir: netem.DirIn, Pkt: netem.Packet{
				Flow: flow.Reverse(),
				Seg:  netem.Segment{Ack: seq, Flags: netem.FlagACK},
				Size: netem.HeaderBytes,
			}})
			at += sim.Time(rtt) + sim.Time(5*time.Millisecond)
		}
	}
	sort.SliceStable(capt.Records, func(i, j int) bool { return capt.Records[i].At < capt.Records[j].At })
	return capt
}

// refCapture is a capture rendered to pcap, with its server's address.
type refCapture struct {
	name   string
	raw    []byte
	server string
}

// referenceCaptures are the multi-flow captures the batch paths are
// checked on.
func referenceCaptures(t *testing.T) []refCapture {
	t.Helper()
	var out []refCapture
	for _, c := range []struct {
		name string
		capt *netem.Capture
	}{
		{"golden-43x3", goldenCapture(t, 43, 3)},
		{"out-of-order-retx", outOfOrderCapture()},
	} {
		raw, server := renderPcap(t, c.capt)
		out = append(out, refCapture{c.name, raw, server})
	}
	return out
}

// checkAgainstWholeTrace asserts that verdicts are the flows of records in
// flowrtt.Flows order, each equal in its slow-start-stable projection to a
// whole-trace, per-flow ClassifyTrace.
func checkAgainstWholeTrace(t *testing.T, c *Classifier, verdicts []FlowVerdict, records []netem.CaptureRecord) {
	t.Helper()
	flows := flowrtt.Flows(records)
	if len(verdicts) != len(flows) {
		t.Fatalf("%d verdicts, want %d flows", len(verdicts), len(flows))
	}
	for i, flow := range flows {
		fv := verdicts[i]
		if fv.SrcIP != ipString(uint32(flow.SrcAddr)) || fv.SrcPort != uint16(flow.SrcPort) ||
			fv.DstIP != ipString(uint32(flow.DstAddr)) || fv.DstPort != uint16(flow.DstPort) {
			t.Fatalf("verdict %d is for %s, want flow %v", i, verdictKey(fv), flow)
		}
		want, wantErr := c.inner.ClassifyTrace(records, flow)
		got, wantB := stableBytes(t, fv.Verdict, fv.Err), stableBytes(t, want, wantErr)
		if !bytes.Equal(got, wantB) {
			t.Errorf("flow %v diverged from the whole-trace reference\nClassifyPcap: %s\nClassifyTrace: %s", flow, got, wantB)
		}
	}
}

func TestClassifyPcapMatchesWholeTraceReference(t *testing.T) {
	c := toyClassifier(t)
	for _, tc := range referenceCaptures(t) {
		t.Run(tc.name, func(t *testing.T) {
			records, err := decodeRecords(t, tc.raw, tc.server)
			if err != nil {
				t.Fatal(err)
			}
			verdicts, err := c.ClassifyPcap(bytes.NewReader(tc.raw), tc.server)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstWholeTrace(t, c, verdicts, records)

			// The fixture must make the early path emit out of
			// first-appearance order, or the Seq sort goes untested.
			var emitted []uint64
			table := stream.NewTable(stream.Config{
				Classifier: c.inner,
				Emit:       func(res stream.FlowResult) { emitted = append(emitted, res.Seq) },
			})
			for i := range records {
				table.Observe(&records[i])
			}
			table.Flush()
			inOrder := sort.SliceIsSorted(emitted, func(i, j int) bool { return emitted[i] < emitted[j] })
			if tc.name == "out-of-order-retx" && inOrder {
				t.Fatalf("emission order %v is first-appearance order; the fixture lost its early retransmitter", emitted)
			}
		})
	}
}

// TestClassifyPcapTruncatedMatchesWholeTracePrefix: a trace cut mid-record
// yields ErrCorruptTrace and, for the prefix that could be read, the
// verdicts a whole-trace analysis of that prefix gives.
func TestClassifyPcapTruncatedMatchesWholeTracePrefix(t *testing.T) {
	c := toyClassifier(t)
	for _, tc := range referenceCaptures(t) {
		t.Run(tc.name, func(t *testing.T) {
			cut := tc.raw[:len(tc.raw)/2]
			prefix, rerr := decodeRecords(t, cut, tc.server)
			if rerr == nil {
				t.Fatal("the cut fell on a record boundary; it must split a record")
			}
			verdicts, err := c.ClassifyPcap(bytes.NewReader(cut), tc.server)
			if !errors.Is(err, ErrCorruptTrace) {
				t.Fatalf("err = %v, want ErrCorruptTrace", err)
			}
			if len(verdicts) == 0 {
				t.Fatal("no verdicts from the readable prefix")
			}
			checkAgainstWholeTrace(t, c, verdicts, prefix)
		})
	}
}

// TestSummarizePcapMatchesPerFlowAnalyze: the one-pass SummarizePcap equals
// a flowrtt.Analyze over the whole decoded trace for each flow, and fails
// on a corrupt trace exactly as that reference read does.
func TestSummarizePcapMatchesPerFlowAnalyze(t *testing.T) {
	caps := referenceCaptures(t)
	caps = append(caps, refCapture{"multi-flow-clean", multiFlowPcap(t, 3, 14), ipString(pcap.ServerIP(2))})
	for _, tc := range caps {
		t.Run(tc.name, func(t *testing.T) {
			records, err := decodeRecords(t, tc.raw, tc.server)
			if err != nil {
				t.Fatal(err)
			}
			var want []FlowSummary
			for _, flow := range flowrtt.Flows(records) {
				info, err := flowrtt.Analyze(records, flow)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, summarizeFlow(info))
			}
			got, err := SummarizePcap(bytes.NewReader(tc.raw), tc.server)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 || !reflect.DeepEqual(got, want) {
				t.Fatalf("SummarizePcap diverged from per-flow Analyze\ngot:  %+v\nwant: %+v", got, want)
			}

			cut := tc.raw[:len(tc.raw)/2]
			_, rerr := decodeRecords(t, cut, tc.server)
			if rerr == nil {
				t.Fatal("the cut fell on a record boundary; it must split a record")
			}
			got, err = SummarizePcap(bytes.NewReader(cut), tc.server)
			if got != nil || err == nil || err.Error() != "tcpsig: reading pcap: "+rerr.Error() {
				t.Fatalf("corrupt trace: got %d summaries, err %v; want none, tcpsig: reading pcap: %v", len(got), err, rerr)
			}
		})
	}
}
