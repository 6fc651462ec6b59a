package tcpsig

import (
	"fmt"
	"io"
	"os"
	"time"

	"tcpsig/internal/flowrtt"
	"tcpsig/internal/netem"
	"tcpsig/internal/pcap"
)

// FlowSummary is a per-flow report of the measurements the classifier is
// built on, independent of any trained model — a tcptrace-style view of a
// server-side capture.
type FlowSummary struct {
	SrcIP   string
	SrcPort uint16
	DstIP   string
	DstPort uint16

	// Duration is the active data-transfer time of the flow.
	Duration time.Duration

	// BytesSent and BytesAcked are unique payload bytes observed and the
	// cumulative acknowledgment progress.
	BytesSent  int64
	BytesAcked int64

	// ThroughputBps is whole-flow goodput; SlowStartBps is the rate
	// achieved by the end of slow start.
	ThroughputBps float64
	SlowStartBps  float64

	// HasRetransmit and FirstRetransmitAt locate the slow-start
	// boundary; RTTSamples counts valid (Karn-filtered) slow-start
	// samples.
	HasRetransmit     bool
	FirstRetransmitAt time.Duration
	RTTSamples        int

	// Features holds NormDiff/CoV when the flow passes the >= 10-sample
	// validity rule (FeaturesValid).
	Features      Features
	FeaturesValid bool
}

// SummarizePcap analyzes every data-bearing flow of a server-side capture
// without classifying it. The capture is read in one pass with one
// flowrtt.Tracker per flow, so each record is analyzed once; summaries are
// in first-appearance order.
func SummarizePcap(r io.Reader, serverIPv4 string) ([]FlowSummary, error) {
	ip, err := parseIPv4(serverIPv4)
	if err != nil {
		return nil, err
	}
	rd := pcap.NewReader(r)
	var trackers []*flowrtt.Tracker
	byFlow := make(map[netem.FlowKey]*flowrtt.Tracker)
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("tcpsig: reading pcap: %w", err)
		}
		crec := pcap.RecordToCapture(rec, ip)
		// Route as the streaming table does: outgoing data creates its
		// flow's tracker, incoming ACKs only advance an existing one.
		p := &crec.Pkt
		var tr *flowrtt.Tracker
		switch {
		case crec.Dir == netem.DirOut && p.IsData():
			tr = byFlow[p.Flow]
			if tr == nil {
				tr = flowrtt.NewTracker(p.Flow)
				byFlow[p.Flow] = tr
				trackers = append(trackers, tr)
			}
		case crec.Dir == netem.DirIn:
			tr = byFlow[p.Flow.Reverse()]
		}
		if tr != nil {
			tr.Observe(&crec)
		}
	}

	var out []FlowSummary
	for _, tr := range trackers {
		if info, err := tr.Finish(); err == nil {
			out = append(out, summarizeFlow(info))
		}
	}
	return out, nil
}

// summarizeFlow renders one flow's completed analysis.
func summarizeFlow(info *flowrtt.FlowInfo) FlowSummary {
	flow := info.Flow
	s := FlowSummary{
		SrcIP:             ipString(uint32(flow.SrcAddr)),
		SrcPort:           uint16(flow.SrcPort),
		DstIP:             ipString(uint32(flow.DstAddr)),
		DstPort:           uint16(flow.DstPort),
		Duration:          info.Duration(),
		BytesSent:         info.BytesSent,
		BytesAcked:        info.BytesAcked,
		ThroughputBps:     info.ThroughputBps(),
		SlowStartBps:      info.SlowStartThroughputBps(),
		HasRetransmit:     info.HasRetransmit,
		FirstRetransmitAt: time.Duration(info.FirstRetransmitAt),
		RTTSamples:        len(info.SlowStart),
	}
	if fv, ferr := FeaturesFromRTTs(info.SlowStartRTTs(), 0); ferr == nil {
		s.Features = fv
		s.FeaturesValid = true
	}
	return s
}

// SummarizePcapFile is SummarizePcap over a file path.
func SummarizePcapFile(path, serverIPv4 string) ([]FlowSummary, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return SummarizePcap(f, serverIPv4)
}
