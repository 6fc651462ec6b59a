// Package tcpsig implements TCP Congestion Signatures (Sundaresan,
// Dhamdhere, Allman, claffy — IMC 2017): a server-side, per-flow technique
// that decides whether a TCP flow experienced self-induced congestion
// (it filled an otherwise idle bottleneck, typically the last-mile access
// link) or external congestion (it started on an already congested path,
// typically an interconnect link).
//
// The method computes two statistics from the flow's RTT samples during TCP
// slow start — NormDiff = (max−min)/max and CoV = stddev/mean — and feeds
// them to a small decision tree. This package exposes the full pipeline:
//
//	verdict, err := clf.ClassifyRTTs(slowStartRTTs)       // raw samples
//	verdict, err := clf.ClassifyPcapFile("server.pcap", serverIP) // tcpdump trace
//
// plus training (on the bundled emulation testbed or your own labeled data),
// model persistence, and the network-emulation substrate used to reproduce
// every experiment in the paper (see the examples/ and cmd/ directories).
package tcpsig

import (
	"fmt"
	"io"
	"net/netip"
	"os"
	"sort"
	"time"

	"tcpsig/internal/checkpoint"
	"tcpsig/internal/core"
	"tcpsig/internal/dtree"
	"tcpsig/internal/features"
	"tcpsig/internal/netem"
	"tcpsig/internal/pcap"
	"tcpsig/internal/stream"
	"tcpsig/internal/testbed"
)

// Typed classification errors, for errors.Is dispatch. A flow failing a
// validity filter still yields a degraded Verdict (non-empty Reason, scaled
// Confidence) whenever features could be computed at all.
var (
	// ErrTooFewSamples: slow start yielded fewer RTT samples than the
	// paper's validity floor (10).
	ErrTooFewSamples = core.ErrTooFewSamples

	// ErrNoSlowStart: the first retransmission preceded any RTT sample.
	ErrNoSlowStart = core.ErrNoSlowStart

	// ErrNoData: the trace holds no data-bearing packets for the flow.
	ErrNoData = core.ErrNoData

	// ErrCorruptTrace: the capture could not be (fully) parsed.
	ErrCorruptTrace = core.ErrCorruptTrace
)

// Reason is the machine-readable code on degraded verdicts.
type Reason = core.Reason

// Reason codes attached to Verdicts (empty = full confidence).
const (
	ReasonNone          = core.ReasonNone
	ReasonTooFewSamples = core.ReasonTooFewSamples
	ReasonNoSlowStart   = core.ReasonNoSlowStart
	ReasonNoData        = core.ReasonNoData
	ReasonCorruptTrace  = core.ReasonCorruptTrace
)

// Congestion classes.
const (
	// SelfInduced marks flows that filled an idle bottleneck themselves
	// (e.g. a speed test saturating the user's access link).
	SelfInduced = core.SelfInduced

	// External marks flows bottlenecked by an already congested link
	// (e.g. a saturated interconnect).
	External = core.External
)

// ClassName returns "self-induced" or "external".
func ClassName(class int) string { return core.ClassName(class) }

// Features is the two-metric vector (NormDiff, CoV) plus supporting RTT
// statistics.
type Features = features.Vector

// FeaturesFromRTTs computes the classification features from slow-start RTT
// samples (at least 10, per the paper's validity rule; pass minSamples 0 for
// that default).
func FeaturesFromRTTs(rtts []time.Duration, minSamples int) (Features, error) {
	return features.FromRTTs(rtts, minSamples)
}

// Verdict is a per-flow classification outcome.
type Verdict = core.Verdict

// Example is one labeled training instance (X = [NormDiff, CoV]).
type Example = dtree.Example

// Classifier is a trained congestion-signature model.
type Classifier struct {
	inner *core.Classifier
}

// TrainOptions configures classifier training.
type TrainOptions struct {
	// MaxDepth bounds the decision tree (the paper uses 4). 0 = 4.
	MaxDepth int

	// MinLeaf is the minimum training examples per leaf. 0 = 5.
	MinLeaf int

	// Threshold records the congestion-labeling threshold the examples
	// were labeled with (informational, stored in the model).
	Threshold float64
}

// Train fits a classifier on labeled examples.
func Train(examples []Example, opt TrainOptions) (*Classifier, error) {
	c, err := core.Train(examples, core.TrainOptions{
		MaxDepth:  opt.MaxDepth,
		MinLeaf:   opt.MinLeaf,
		Threshold: opt.Threshold,
	})
	if err != nil {
		return nil, err
	}
	return &Classifier{inner: c}, nil
}

// TrainTestbedOptions configures TrainOnTestbed.
type TrainTestbedOptions struct {
	// RunsPerConfig is the number of emulated throughput tests per
	// parameter combination and scenario (default 10; the paper ran 50).
	RunsPerConfig int

	// Threshold is the slow-start-throughput labeling threshold as a
	// fraction of access capacity (default 0.8; the paper shows 0.6-0.9
	// all work).
	Threshold float64

	// Quick shrinks the parameter grid to a single representative
	// configuration for fast bootstrapping (seconds instead of minutes).
	Quick bool

	// Seed drives the emulation deterministically (default 1).
	Seed int64

	// Progress, when non-nil, receives per-run progress.
	Progress func(done, total int)
}

// TestbedExamples runs the paper's §3 controlled experiments on the emulated
// testbed and returns the threshold-labeled feature examples, for training
// or export.
func TestbedExamples(opt TrainTestbedOptions) ([]Example, error) {
	if opt.Threshold == 0 {
		opt.Threshold = 0.8
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	sw := testbed.SweepOptions{
		RunsPerConfig: opt.RunsPerConfig,
		Seed:          opt.Seed,
		Progress:      opt.Progress,
	}
	if opt.Quick {
		sw = sw.QuickGrid()
		if sw.RunsPerConfig == 0 {
			sw.RunsPerConfig = 4
		}
	}
	results, err := testbed.SweepCheckpointed(sw)
	if err != nil {
		return nil, fmt.Errorf("tcpsig: testbed sweep: %w", err)
	}
	ds := testbed.Dataset(results, opt.Threshold)
	if len(ds) == 0 {
		return nil, fmt.Errorf("tcpsig: testbed sweep produced no labeled examples")
	}
	return ds, nil
}

// TrainOnTestbed reproduces the paper's §3 methodology end to end: it runs
// controlled experiments on the emulated testbed (self-induced and external
// scenarios across the access-link parameter grid), labels them with the
// slow-start throughput threshold, and trains the decision tree.
func TrainOnTestbed(opt TrainTestbedOptions) (*Classifier, error) {
	ds, err := TestbedExamples(opt)
	if err != nil {
		return nil, err
	}
	threshold := opt.Threshold
	if threshold == 0 {
		threshold = 0.8
	}
	return Train(ds, TrainOptions{MinLeaf: 2, Threshold: threshold})
}

// ClassifyRTTs classifies a flow from its slow-start RTT samples.
func (c *Classifier) ClassifyRTTs(rtts []time.Duration) (Verdict, error) {
	return c.inner.ClassifyRTTs(rtts)
}

// ClassifyFeatures classifies a precomputed feature vector.
func (c *Classifier) ClassifyFeatures(v Features) Verdict {
	return c.inner.ClassifyFeatures(v)
}

// FlowVerdict pairs a verdict with its flow identity for trace-wide results.
type FlowVerdict struct {
	SrcIP   string
	SrcPort uint16
	DstIP   string
	DstPort uint16
	// Verdict is populated whenever features could be computed, even for
	// flows failing validity filters (then Verdict.Reason is non-empty and
	// Confidence is degraded); Verdict.Class is -1 when nothing could be
	// classified at all.
	//
	// Verdict.Flow is the flow's analysis as of its verdict. Its
	// slow-start fields (SlowStart, HasRetransmit, FirstRetransmitAt,
	// SlowStartBytesAcked, FirstDataAt) are final. For a flow that
	// retransmitted, the whole-flow fields stop at the first
	// retransmission: Samples, AckCurve, BytesSent and LastDataAt are
	// frozen there and BytesAcked is unset. SummarizePcap gives the
	// whole-flow view.
	Verdict Verdict

	// Err is non-nil when the flow failed validity filters; match it with
	// errors.Is against ErrTooFewSamples, ErrNoSlowStart, ErrNoData.
	Err error
}

// ClassifyPcapFile analyzes a tcpdump capture taken at the data sender (the
// server side of a throughput test) and classifies every data-bearing flow.
// serverIPv4 is the server's address in dotted-quad form, used to orient
// packet directions.
func (c *Classifier) ClassifyPcapFile(path string, serverIPv4 string) ([]FlowVerdict, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return c.ClassifyPcap(f, serverIPv4)
}

// ClassifyPcap is ClassifyPcapFile reading from r. The capture is decoded
// in one pass and fed record by record through the streaming flow table
// (internal/stream), so memory scales with the number of flows, not the
// trace length. A flow is classified the moment its slow start ends, as
// `ccsig serve` does, and its later records cost one lookup each; flows
// that never retransmit are classified at EOF. Results are in
// first-appearance order, and FlowVerdict.Verdict documents which fields
// of Verdict.Flow are final. A trace that is cut off or corrupted partway
// through still yields verdicts for the flows read up to that point,
// alongside an error matching ErrCorruptTrace.
func (c *Classifier) ClassifyPcap(r io.Reader, serverIPv4 string) ([]FlowVerdict, error) {
	ip, err := parseIPv4(serverIPv4)
	if err != nil {
		return nil, err
	}
	rd := pcap.NewReader(r)
	var (
		results []stream.FlowResult
		readErr error
	)
	table := stream.NewTable(stream.Config{
		Classifier: c.inner,
		Emit:       func(res stream.FlowResult) { results = append(results, res) },
	})
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			readErr = fmt.Errorf("%w: %v", ErrCorruptTrace, err)
			break
		}
		crec := pcap.RecordToCapture(rec, ip)
		table.Observe(&crec)
	}
	table.Flush()
	// Early verdicts arrive in slow-start-end order; Seq restores
	// first-appearance order.
	sort.Slice(results, func(i, j int) bool { return results[i].Seq < results[j].Seq })
	var out []FlowVerdict
	for _, res := range results {
		out = append(out, FlowVerdict{
			SrcIP:   ipString(uint32(res.Flow.SrcAddr)),
			SrcPort: uint16(res.Flow.SrcPort),
			DstIP:   ipString(uint32(res.Flow.DstAddr)),
			DstPort: uint16(res.Flow.DstPort),
			Verdict: res.Verdict,
			Err:     res.Err,
		})
	}
	return out, readErr
}

// ClassifyCapture classifies every flow of an in-memory emulator capture.
// Like ClassifyPcap it is a thin consumer of the streaming flow table,
// classifying each flow when its slow start ends, with the same
// Verdict.Flow contract (see FlowVerdict.Verdict). It mirrors
// core.ClassifyCapture's contract: invalid flows land in the error map,
// and flows that still produced a degraded verdict appear in both.
func (c *Classifier) ClassifyCapture(capt *netem.Capture) (map[netem.FlowKey]Verdict, map[netem.FlowKey]error) {
	verdicts := make(map[netem.FlowKey]Verdict)
	errs := make(map[netem.FlowKey]error)
	table := stream.NewTable(stream.Config{
		Classifier: c.inner,
		Emit: func(res stream.FlowResult) {
			if res.Err != nil {
				errs[res.Flow] = res.Err
				if res.Verdict.Class < 0 {
					return
				}
			}
			verdicts[res.Flow] = res.Verdict
		},
	})
	for i := range capt.Records {
		table.Observe(&capt.Records[i])
	}
	table.Flush()
	return verdicts, errs
}

// Core exposes the underlying core classifier for module-internal
// consumers — cmd/ccsig's serve subcommand wires it straight into the
// streaming flow table (internal/stream). External importers cannot name
// the returned type.
func (c *Classifier) Core() *core.Classifier { return c.inner }

// Save writes the model as JSON.
func (c *Classifier) Save(w io.Writer) error { return c.inner.Save(w) }

// SaveFile writes the model to a file atomically: the model is staged to a
// sibling temp file and renamed into place, so an existing model is never
// replaced by a torn half-write.
func (c *Classifier) SaveFile(path string) error {
	return checkpoint.WriteFileAtomic(path, c.inner.Save)
}

// Tree renders the trained decision tree for inspection.
func (c *Classifier) Tree() string { return c.inner.Tree.String() }

// Threshold returns the labeling threshold the model was trained with.
func (c *Classifier) Threshold() float64 { return c.inner.Threshold }

// Load reads a model saved with Save.
func Load(r io.Reader) (*Classifier, error) {
	inner, err := core.Load(r)
	if err != nil {
		return nil, err
	}
	return &Classifier{inner: inner}, nil
}

// LoadFile reads a model from a file.
func LoadFile(path string) (*Classifier, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

func parseIPv4(s string) (uint32, error) {
	// netip.ParseAddr rejects trailing junk, empty octets and out-of-range
	// values that fmt.Sscanf-style parsing silently accepts.
	addr, err := netip.ParseAddr(s)
	if err != nil || !addr.Is4() {
		return 0, fmt.Errorf("tcpsig: bad IPv4 %q", s)
	}
	b := addr.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]), nil
}

func ipString(ip uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", ip>>24, ip>>16&0xff, ip>>8&0xff, ip&0xff)
}
