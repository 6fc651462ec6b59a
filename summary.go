package tcpsig

import (
	"fmt"
	"io"
	"os"
	"time"

	"tcpsig/internal/flowrtt"
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
// without classifying it.
func SummarizePcap(r io.Reader, serverIPv4 string) ([]FlowSummary, error) {
	ip, err := parseIPv4(serverIPv4)
	if err != nil {
		return nil, err
	}
	records, err := pcap.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("tcpsig: reading pcap: %w", err)
	}
	capt := pcap.ToCapture(records, ip)

	var out []FlowSummary
	for _, flow := range flowrtt.Flows(capt.Records) {
		info, err := flowrtt.Analyze(capt.Records, flow)
		if err != nil {
			continue
		}
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
		out = append(out, s)
	}
	return out, nil
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
