// Package flowrtt extracts per-packet RTT samples from a server-side packet
// trace, the measurement the paper's technique is built on (§3.2).
//
// An RTT sample pairs an outgoing data segment with the acknowledgment that
// covers it, observed at the server. Samples from retransmitted sequence
// ranges are discarded (Karn's rule). Slow start is defined, as in the
// paper, as the period up to the first retransmission or fast
// retransmission; flows with fewer than MinSlowStartSamples RTT samples in
// that window are rejected as statistically invalid.
package flowrtt

import (
	"errors"
	"fmt"
	"time"

	"tcpsig/internal/netem"
	"tcpsig/internal/sim"
)

// MinSlowStartSamples is the validity threshold from §3.2 of the paper.
const MinSlowStartSamples = 10

// ErrTooFewSamples marks flows whose slow start yielded fewer than
// MinSlowStartSamples RTT samples.
var ErrTooFewSamples = errors.New("flowrtt: fewer than 10 slow-start RTT samples")

// ErrNoData marks traces with no data-bearing packets for the flow.
var ErrNoData = errors.New("flowrtt: no data packets for flow")

// Sample is one RTT measurement.
type Sample struct {
	At  sim.Time      // when the ACK arrived
	RTT time.Duration // measured round-trip time
}

// FlowInfo is the analysis result for a single flow direction.
type FlowInfo struct {
	Flow netem.FlowKey

	// Samples holds every valid (Karn-filtered) RTT sample in arrival
	// order; SlowStart is the prefix collected before the first
	// retransmission (the whole flow if none occurred).
	Samples   []Sample
	SlowStart []Sample

	// HasRetransmit reports whether a retransmission was observed;
	// FirstRetransmitAt is its trace time.
	HasRetransmit     bool
	FirstRetransmitAt sim.Time

	FirstDataAt sim.Time
	LastDataAt  sim.Time

	BytesSent  int64 // unique payload bytes observed outgoing
	BytesAcked int64 // highest cumulative ACK progress

	// SlowStartBytesAcked is the ACK progress at the first
	// retransmission (or end of trace), used for slow-start throughput.
	SlowStartBytesAcked int64

	// AckCurve records cumulative ACK progress over time, enabling rate
	// measurements over sub-windows of the flow.
	AckCurve []AckPoint
}

// AckPoint is one point of the cumulative acknowledgment curve.
type AckPoint struct {
	At    sim.Time
	Acked int64
}

// Duration returns the active data-transfer time of the flow.
func (f *FlowInfo) Duration() time.Duration {
	return f.LastDataAt - f.FirstDataAt
}

// ThroughputBps returns the whole-flow goodput estimate.
func (f *FlowInfo) ThroughputBps() float64 {
	d := f.Duration().Seconds()
	if d <= 0 {
		return 0
	}
	return float64(f.BytesAcked*8) / d
}

// SlowStartDuration returns the length of the slow-start window.
func (f *FlowInfo) SlowStartDuration() time.Duration {
	end := f.LastDataAt
	if f.HasRetransmit {
		end = f.FirstRetransmitAt
	}
	return end - f.FirstDataAt
}

// ackedAt returns the cumulative acked bytes at time t.
func (f *FlowInfo) ackedAt(t sim.Time) int64 {
	// Binary search for the last point at or before t.
	lo, hi := 0, len(f.AckCurve)
	for lo < hi {
		mid := (lo + hi) / 2
		if f.AckCurve[mid].At <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0
	}
	return f.AckCurve[lo-1].Acked
}

// SlowStartThroughputBps returns the rate the flow achieved by the end of
// slow start, the quantity the paper thresholds against link capacity for
// labeling. Because slow start ramps exponentially, the whole-window mean
// undersells what the flow reached; this measures the second half of the
// window, which approaches the bottleneck rate for flows that fill their
// link.
func (f *FlowInfo) SlowStartThroughputBps() float64 {
	end := f.LastDataAt
	if f.HasRetransmit {
		end = f.FirstRetransmitAt
	}
	d := end - f.FirstDataAt
	if d <= 0 {
		return 0
	}
	mid := f.FirstDataAt + d/2
	bytes := f.SlowStartBytesAcked - f.ackedAt(mid)
	half := (end - mid).Seconds()
	if half <= 0 || bytes <= 0 {
		return f.MeanSlowStartThroughputBps()
	}
	return float64(bytes*8) / half
}

// MeanSlowStartThroughputBps is the whole-window average goodput during
// slow start.
func (f *FlowInfo) MeanSlowStartThroughputBps() float64 {
	d := f.SlowStartDuration().Seconds()
	if d <= 0 {
		return 0
	}
	return float64(f.SlowStartBytesAcked*8) / d
}

// SlowStartRTTs returns the slow-start RTT samples as raw durations.
func (f *FlowInfo) SlowStartRTTs() []time.Duration {
	out := make([]time.Duration, len(f.SlowStart))
	for i, s := range f.SlowStart {
		out[i] = s.RTT
	}
	return out
}

// Valid reports whether the flow passes the paper's sample-count filter.
func (f *FlowInfo) Valid() bool { return len(f.SlowStart) >= MinSlowStartSamples }

type outSeg struct {
	endSeq uint32
	at     sim.Time
	retx   bool
}

// Tracker is the incremental form of Analyze: a per-flow state machine fed
// one capture record at a time. Feeding every record of a capture through
// Observe and then calling Finish produces exactly what Analyze returns —
// Analyze is implemented that way — so batch and streaming consumers share
// one code path by construction.
//
// The streaming property the classifier exploits: the moment Observe
// reports that slow start ended (the flow's first retransmission), the
// slow-start prefix is final. SlowStart, HasRetransmit, FirstRetransmitAt
// and SlowStartBytesAcked never change afterwards, so a verdict computed
// right then equals the one a whole-trace analysis would reach, and the
// remaining per-flow state can be freed.
type Tracker struct {
	flow netem.FlowKey
	rev  netem.FlowKey
	info *FlowInfo

	outstanding []outSeg
	seen        []netem.SackBlock // transmitted ranges, for retransmit detection
	highAck     uint32
	haveAck     bool
	firstSeq    uint32
	haveData    bool
}

// NewTracker starts tracking the data direction given by flow. Outgoing
// records must carry the flow key; incoming ACKs are matched on the
// reverse key. Records for other flows are ignored, so a caller may feed a
// whole interleaved capture or pre-filter per flow — the result is the
// same.
func NewTracker(flow netem.FlowKey) *Tracker {
	return &Tracker{flow: flow, rev: flow.Reverse(), info: &FlowInfo{Flow: flow}}
}

// SlowStartOver reports whether the slow-start window has closed (a
// retransmission was observed). Once true, the slow-start fields of Peek()
// are final.
func (t *Tracker) SlowStartOver() bool { return t.info.HasRetransmit }

// Peek returns the evolving analysis. Before Finish, whole-flow fields
// (BytesAcked, Samples, AckCurve, LastDataAt) are still moving; once
// SlowStartOver reports true, the slow-start fields (SlowStart,
// HasRetransmit, FirstRetransmitAt, SlowStartBytesAcked, FirstDataAt) are
// final. The pointer aliases Tracker state — callers must not mutate it.
func (t *Tracker) Peek() *FlowInfo { return t.info }

// Observe feeds one capture record into the state machine. It returns true
// exactly once, on the record that ends the flow's slow start (its first
// retransmission) — the earliest moment a streaming classifier can emit
// this flow's verdict.
func (t *Tracker) Observe(rec *netem.CaptureRecord) bool {
	info := t.info
	p := &rec.Pkt
	slowStartJustEnded := false
	switch {
	case rec.Dir == netem.DirOut && p.Flow == t.flow && p.IsData():
		retx := t.isRetransmission(p)
		if !t.haveData {
			t.haveData = true
			t.firstSeq = p.Seg.Seq
			info.FirstDataAt = rec.At
		} else if !retx && seqLT32(p.Seg.Seq, t.firstSeq) {
			// A reordered capture showed us a segment from before
			// the first one we saw: rebase the byte-progress
			// origin so ACK progress is not undercounted.
			delta := seqDiff32(t.firstSeq, p.Seg.Seq)
			t.firstSeq = p.Seg.Seq
			for j := range info.AckCurve {
				info.AckCurve[j].Acked += delta
			}
		}
		info.LastDataAt = rec.At
		if retx {
			if !info.HasRetransmit {
				info.HasRetransmit = true
				info.FirstRetransmitAt = rec.At
				if t.haveAck {
					info.SlowStartBytesAcked = seqDiff32(t.highAck, t.firstSeq)
				}
				slowStartJustEnded = true
			}
			// Invalidate overlapping outstanding samples.
			for j := range t.outstanding {
				if seqLT32(p.Seg.Seq, t.outstanding[j].endSeq) && seqLT32(t.outstanding[j].endSeq, p.EndSeq()+1) {
					t.outstanding[j].retx = true
				}
			}
		} else {
			t.outstanding = append(t.outstanding, outSeg{endSeq: p.EndSeq(), at: rec.At})
			t.seen = mergeRange(t.seen, p.Seg.Seq, p.EndSeq())
		}
		info.BytesSent = coveredBytes(t.seen)

	case rec.Dir == netem.DirIn && p.Flow == t.rev && p.Seg.Flags&netem.FlagACK != 0:
		ack := p.Seg.Ack
		if t.haveData && seqLT32(t.firstSeq, ack) {
			if !t.haveAck || seqLT32(t.highAck, ack) {
				t.highAck = ack
				t.haveAck = true
				info.AckCurve = append(info.AckCurve, AckPoint{At: rec.At, Acked: seqDiff32(t.highAck, t.firstSeq)})
			}
		}
		// Pop covered segments; newest non-retransmitted one
		// yields the sample.
		idx := 0
		var sampleAt sim.Time
		var sampleRTT time.Duration
		ok := false
		for ; idx < len(t.outstanding) && seqLEQ32(t.outstanding[idx].endSeq, ack); idx++ {
			if t.outstanding[idx].retx {
				continue
			}
			rtt := rec.At - t.outstanding[idx].at
			if rtt <= 0 {
				// Non-monotonic timestamps (corrupt or hostile
				// captures) must never yield negative or zero
				// RTT samples.
				continue
			}
			sampleAt = rec.At
			sampleRTT = rtt
			ok = true
		}
		t.outstanding = t.outstanding[idx:]
		if ok {
			s := Sample{At: sampleAt, RTT: sampleRTT}
			info.Samples = append(info.Samples, s)
			if !info.HasRetransmit {
				info.SlowStart = append(info.SlowStart, s)
			}
		}
	}
	return slowStartJustEnded
}

// isRetransmission reports whether p retransmits data. The emulator flags
// its retransmissions; for real traces the test is a data packet whose
// range overlaps something already sent.
func (t *Tracker) isRetransmission(p *netem.Packet) bool {
	if p.Retransmit {
		return true
	}
	start, end := p.Seg.Seq, p.EndSeq()
	for _, r := range t.seen {
		if seqLT32(start, r.End) && seqLT32(r.Start, end) {
			return true
		}
	}
	return false
}

// Finish finalizes the whole-flow byte accounting and returns the analysis,
// exactly as Analyze would for the record sequence observed so far. It is
// idempotent and may be interleaved with further Observe calls (the next
// Finish reflects them).
func (t *Tracker) Finish() (*FlowInfo, error) {
	if !t.haveData {
		return nil, fmt.Errorf("%w: %v", ErrNoData, t.flow)
	}
	info := t.info
	if t.haveAck {
		info.BytesAcked = seqDiff32(t.highAck, t.firstSeq)
		if !info.HasRetransmit {
			info.SlowStartBytesAcked = info.BytesAcked
		}
	}
	return info, nil
}

// Analyze extracts RTT samples for the data direction given by flow from a
// server-side capture. Outgoing records must carry the flow key; incoming
// ACKs are matched on the reverse key. It is the batch form of Tracker:
// every record streams through the same state machine, record for record.
func Analyze(records []netem.CaptureRecord, flow netem.FlowKey) (*FlowInfo, error) {
	t := NewTracker(flow)
	for i := range records {
		t.Observe(&records[i])
	}
	return t.Finish()
}

// AnalyzeValid is Analyze plus the paper's >= 10 slow-start samples filter.
func AnalyzeValid(records []netem.CaptureRecord, flow netem.FlowKey) (*FlowInfo, error) {
	info, err := Analyze(records, flow)
	if err != nil {
		return nil, err
	}
	if !info.Valid() {
		return info, fmt.Errorf("%w: got %d", ErrTooFewSamples, len(info.SlowStart))
	}
	return info, nil
}

// Flows enumerates the distinct outgoing data-bearing flow keys in a capture
// in order of first appearance.
func Flows(records []netem.CaptureRecord) []netem.FlowKey {
	var out []netem.FlowKey
	seen := make(map[netem.FlowKey]bool)
	for i := range records {
		rec := &records[i]
		if rec.Dir == netem.DirOut && rec.Pkt.IsData() && !seen[rec.Pkt.Flow] {
			seen[rec.Pkt.Flow] = true
			out = append(out, rec.Pkt.Flow)
		}
	}
	return out
}

// mergeRange inserts [start, end) keeping the set sorted and merged, in
// place: the steady state (extending the frontier block) touches only
// existing storage, so per-record tracking allocates nothing once the set
// has reached its working size.
func mergeRange(set []netem.SackBlock, start, end uint32) []netem.SackBlock {
	if !seqLT32(start, end) {
		return set
	}
	// i = first block not entirely below [start, end); j = first block
	// entirely above it. [i, j) overlaps or touches the new range and
	// collapses into a single block.
	i := 0
	for i < len(set) && seqLT32(set[i].End, start) {
		i++
	}
	j := i
	for j < len(set) && seqLEQ32(set[j].Start, end) {
		if seqLT32(set[j].Start, start) {
			start = set[j].Start
		}
		if seqLT32(end, set[j].End) {
			end = set[j].End
		}
		j++
	}
	if i == j {
		// No overlap: open a slot at i.
		set = append(set, netem.SackBlock{})
		copy(set[i+1:], set[i:])
		set[i] = netem.SackBlock{Start: start, End: end}
	} else {
		set[i] = netem.SackBlock{Start: start, End: end}
		set = append(set[:i+1], set[j:]...)
	}
	return set
}

// coveredBytes sums the bytes covered by a SACK set.
func coveredBytes(set []netem.SackBlock) int64 {
	var n int64
	for _, iv := range set {
		n += seqDiff32(iv.End, iv.Start)
	}
	return n
}

func seqLT32(a, b uint32) bool  { return int32(a-b) < 0 }
func seqLEQ32(a, b uint32) bool { return int32(a-b) <= 0 }
func seqDiff32(a, b uint32) int64 {
	return int64(int32(a - b))
}
