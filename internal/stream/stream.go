// Package stream classifies TCP flows incrementally: capture records flow
// in one at a time, per-flow state lives in a sharded bounded table, and
// verdicts are emitted the moment they are decidable — for most flows the
// instant slow start ends, long before the stream does. Memory scales with
// the number of concurrently tracked flows (the table cap), not with trace
// length, which is what lets one code path serve pcap files, the emulator,
// and a long-running daemon.
//
// The table is a thin shell around flowrtt.Tracker and core.ClassifyInfo:
// batch analysis feeds the same state machine record for record, so
// streaming and batch verdicts agree by construction (the equivalence
// tests in this package pin it).
package stream

import (
	"sort"
	"sync"
	"sync/atomic"

	"tcpsig/internal/core"
	"tcpsig/internal/flowrtt"
	"tcpsig/internal/netem"
	"tcpsig/internal/obs"
)

// FlowResult is one emitted per-flow verdict.
type FlowResult struct {
	// Flow is the data-direction flow key (server → client).
	Flow netem.FlowKey

	// Seq is the flow's first-appearance index among tracked flows,
	// starting at 0. Sorting results by Seq reproduces the order batch
	// classification reports flows in.
	Seq uint64

	// Early is true when the verdict was emitted at the end of slow start
	// (streaming mode), false when it was emitted at Flush with the
	// complete flow analysis.
	Early bool

	// Verdict is the classification outcome; Verdict.Flow aliases the
	// tracker's analysis as of emission time (slow-start fields final,
	// whole-flow fields final only when Early is false).
	Verdict core.Verdict

	// Err is non-nil when the flow failed a validity filter, matching the
	// core error taxonomy (ErrTooFewSamples, ErrNoSlowStart, ...).
	Err error
}

// Config configures a Table.
type Config struct {
	// Classifier classifies each flow's analysis. Required.
	//
	// The classifier's Obs sink, when set, is updated on every verdict
	// without synchronization; leave it nil (or feed the table from a
	// single goroutine) when Observe is called concurrently.
	Classifier *core.Classifier

	// Emit receives every verdict, outside any table lock. Required.
	// Observe and Flush invoke it from the calling goroutine.
	Emit func(FlowResult)

	// MaxFlows caps resident per-flow entries across the whole table
	// (live trackers plus post-verdict tombstones); the least recently
	// touched entry is evicted when a new flow would exceed it.
	// 0 = unbounded (batch mode).
	MaxFlows int

	// Shards is the number of lock shards, rounded up to a power of two.
	// 0 = 1. More shards only help when Observe is called concurrently.
	Shards int

	// FullInfo disables early emission: every flow is classified at
	// Flush from its completed analysis, so Verdict.Flow carries final
	// whole-flow byte accounting. The verdict itself is identical either
	// way — it depends only on slow-start fields, which are final at
	// early-emission time. The batch entry points (ClassifyPcap,
	// ClassifyCapture) take the early path too; FullInfo's users are the
	// benchmark ledger and this package's tests.
	FullInfo bool

	// Recycle returns per-flow state (trackers and table entries) to
	// per-shard free lists when a flow detaches — verdict emission,
	// eviction, Flush — so a long-running table reaches steady state
	// allocation-free. It is opt-in because it tightens the emission
	// contract: Verdict.Flow aliases the tracker's analysis, which is
	// rewritten once the tracker is reused, so with Recycle on it (and
	// FlowResult.Verdict.Flow generally) is valid only for the duration
	// of the Emit callback. Consumers that retain verdicts past Emit
	// must copy what they need or leave Recycle off.
	Recycle bool
}

// entry is one tracked flow. After its verdict is emitted the tracker is
// dropped (freeing the per-flow analysis state) but the entry stays as a
// tombstone so later records for the same 4-tuple cannot resurrect the
// flow and emit a duplicate verdict.
type entry struct {
	flow    netem.FlowKey
	seq     uint64
	tracker *flowrtt.Tracker // nil = tombstone

	// LRU list links; most recently touched at head.
	prev, next *entry
}

// shard is one lock domain of the flow table.
type shard struct {
	mu    sync.Mutex
	flows map[netem.FlowKey]*entry
	head  *entry // most recently touched
	tail  *entry // least recently touched, evicted first
	cap   int    // max resident entries in this shard; 0 = unbounded

	// Free lists (Config.Recycle): detached trackers and entries, reused
	// under the shard lock so recycling needs no extra synchronization.
	trackers flowrtt.Pool
	freeEnts []*entry
}

// newEntry builds (or recycles) an entry with an armed tracker. Caller
// holds sh.mu.
func (sh *shard) newEntry(t *Table, key netem.FlowKey) *entry {
	var e *entry
	if n := len(sh.freeEnts); t.cfg.Recycle && n > 0 {
		e = sh.freeEnts[n-1]
		sh.freeEnts[n-1] = nil
		sh.freeEnts = sh.freeEnts[:n-1]
	} else {
		e = &entry{}
	}
	*e = entry{flow: key, seq: t.nextSeq.Add(1) - 1}
	if t.cfg.Recycle {
		e.tracker = sh.trackers.Get(key)
	} else {
		e.tracker = flowrtt.NewTracker(key)
	}
	return e
}

// recycle parks a detached entry and/or tracker. Caller holds sh.mu; nil
// arguments are skipped, and with Recycle off both are left to the GC.
func (sh *shard) recycle(t *Table, e *entry, tr *flowrtt.Tracker) {
	if !t.cfg.Recycle {
		return
	}
	sh.trackers.Put(tr)
	if e != nil {
		*e = entry{}
		sh.freeEnts = append(sh.freeEnts, e)
	}
}

// Table is a sharded, bounded flow table that classifies flows as their
// records stream through it. Observe may be called from multiple
// goroutines (subject to Config.Classifier's Obs caveat); Flush must be
// called once, after all Observe calls, to classify flows whose slow
// start never ended.
type Table struct {
	cfg    Config
	shards []shard
	mask   uint32

	nextSeq atomic.Uint64

	// Counters, exposed via Metrics.
	recordsObserved   atomic.Uint64
	flowsTracked      atomic.Uint64
	evictedFlows      atomic.Uint64 // live state evicted before a verdict
	evictedTombstones atomic.Uint64 // post-verdict markers evicted
	verdictsEmitted   atomic.Uint64
	flowsLive         atomic.Int64 // entries with a live tracker
	flowsResident     atomic.Int64 // entries incl. tombstones
}

// NewTable builds a flow table. It panics when Classifier or Emit is
// missing — a table without either is unusable and the misuse should
// surface at construction, not on the first flow.
func NewTable(cfg Config) *Table {
	if cfg.Classifier == nil {
		panic("stream: Config.Classifier is required")
	}
	if cfg.Emit == nil {
		panic("stream: Config.Emit is required")
	}
	n := 1
	for n < cfg.Shards {
		n <<= 1
	}
	t := &Table{cfg: cfg, shards: make([]shard, n), mask: uint32(n - 1)}
	perShard := 0
	if cfg.MaxFlows > 0 {
		perShard = (cfg.MaxFlows + n - 1) / n
		if perShard < 1 {
			perShard = 1
		}
	}
	for i := range t.shards {
		t.shards[i].flows = make(map[netem.FlowKey]*entry)
		t.shards[i].cap = perShard
	}
	return t
}

// shardFor routes a data-flow key to its lock shard.
func (t *Table) shardFor(k netem.FlowKey) *shard {
	h := uint32(k.SrcAddr)*0x9e3779b1 ^ uint32(k.DstAddr)*0x85ebca77 ^
		uint32(k.SrcPort)<<16 ^ uint32(k.DstPort)
	h ^= h >> 16
	h *= 0x7feb352d
	h ^= h >> 15
	return &t.shards[h&t.mask]
}

// Observe feeds one capture record through the table. Outgoing data
// records create or advance the record's own flow; incoming ACKs advance
// the reverse flow (lookup only — pure-ACK traffic never creates state).
// When a flow's slow start ends and FullInfo is off, its verdict is
// classified and emitted immediately and the per-flow analysis state is
// freed.
func (t *Table) Observe(rec *netem.CaptureRecord) {
	t.recordsObserved.Add(1)
	p := &rec.Pkt
	var key netem.FlowKey
	create := false
	switch {
	case rec.Dir == netem.DirOut && p.IsData():
		key = p.Flow
		create = true
	case rec.Dir == netem.DirIn && p.Seg.Flags&netem.FlagACK != 0:
		key = p.Flow.Reverse()
	default:
		return
	}
	sh := t.shardFor(key)
	emit, done := t.observeLocked(sh, key, create, rec)
	if emit != nil {
		t.verdictsEmitted.Add(1)
		t.cfg.Emit(*emit)
		if done != nil {
			// The verdict aliased the tracker's analysis, so it could
			// only be parked once Emit returned.
			sh.mu.Lock()
			sh.recycle(t, nil, done)
			sh.mu.Unlock()
		}
	}
}

// observeLocked performs the under-lock part of Observe and returns the
// verdict to emit, if any, plus the detached tracker to recycle after the
// emission. Emit runs in the caller, outside the shard lock, so a slow
// verdict consumer never blocks other flows on this shard.
func (t *Table) observeLocked(sh *shard, key netem.FlowKey, create bool, rec *netem.CaptureRecord) (*FlowResult, *flowrtt.Tracker) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.flows[key]
	if !ok {
		if !create {
			return nil, nil
		}
		e = sh.newEntry(t, key)
		sh.flows[key] = e
		sh.lruPush(e)
		t.flowsTracked.Add(1)
		t.flowsLive.Add(1)
		t.flowsResident.Add(1)
		sh.evictOver(t, e)
	} else {
		sh.lruTouch(e)
	}
	if e.tracker != nil && e.tracker.Observe(rec) && !t.cfg.FullInfo {
		v, err := t.cfg.Classifier.ClassifyInfo(e.tracker.Peek())
		tr := e.tracker
		e.tracker = nil // verdict is out; the entry stays as a tombstone
		t.flowsLive.Add(-1)
		return &FlowResult{Flow: e.flow, Seq: e.seq, Early: true, Verdict: v, Err: err}, tr
	}
	return nil, nil
}

// evictOver evicts least-recently-touched entries until the shard is back
// at its cap. keep (the entry just inserted) is never evicted. Evicting a
// live tracker discards that flow without a verdict — the price of the
// memory bound, tallied on stream.evicted_flows.
func (sh *shard) evictOver(t *Table, keep *entry) {
	if sh.cap <= 0 {
		return
	}
	for len(sh.flows) > sh.cap {
		victim := sh.tail
		if victim == nil || victim == keep {
			return
		}
		sh.lruRemove(victim)
		delete(sh.flows, victim.flow)
		t.flowsResident.Add(-1)
		tr := victim.tracker
		victim.tracker = nil
		if tr != nil {
			t.flowsLive.Add(-1)
			t.evictedFlows.Add(1)
		} else {
			t.evictedTombstones.Add(1)
		}
		// No verdict was emitted for this flow, so nothing aliases the
		// tracker: both pieces can be parked immediately.
		sh.recycle(t, victim, tr)
	}
}

func (sh *shard) lruPush(e *entry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *shard) lruRemove(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (sh *shard) lruTouch(e *entry) {
	if sh.head == e {
		return
	}
	sh.lruRemove(e)
	sh.lruPush(e)
}

// Flush classifies every flow still holding live state — flows whose slow
// start never ended, plus all flows in FullInfo mode — and emits their
// verdicts in first-appearance order. It clears the table; a Table may be
// reused afterwards, but flows spanning the Flush are then split in two.
func (t *Table) Flush() {
	var rem []*entry
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for _, e := range sh.flows { // order restored by the Seq sort below
			if e.tracker != nil {
				rem = append(rem, e)
			} else {
				// Tombstone: nothing left to emit, park it now.
				sh.recycle(t, e, nil)
			}
		}
		sh.flows = make(map[netem.FlowKey]*entry)
		sh.head, sh.tail = nil, nil
		sh.mu.Unlock()
	}
	t.flowsLive.Store(0)
	t.flowsResident.Store(0)
	sort.Slice(rem, func(i, j int) bool { return rem[i].seq < rem[j].seq })
	for _, e := range rem {
		res := FlowResult{Flow: e.flow, Seq: e.seq}
		info, err := e.tracker.Finish()
		if err != nil {
			// Unreachable in practice: a tracker is only created on a
			// data record, so Finish cannot report ErrNoData. Kept as a
			// defensive mirror of ClassifyTrace's failure mapping.
			res.Verdict = core.Verdict{Class: -1, Reason: core.ReasonNoData}
			res.Err = err
		} else {
			res.Verdict, res.Err = t.cfg.Classifier.ClassifyInfo(info)
		}
		tr := e.tracker
		e.tracker = nil
		t.verdictsEmitted.Add(1)
		t.cfg.Emit(res)
		if t.cfg.Recycle {
			// The verdict aliased the tracker's analysis; park both
			// pieces only now that the emission is over.
			sh := t.shardFor(res.Flow)
			sh.mu.Lock()
			sh.recycle(t, e, tr)
			sh.mu.Unlock()
		}
	}
}

// Metrics returns a point-in-time snapshot of the table's counters and
// gauges in obs snapshot order (counters sorted by name, then gauges), so
// it can feed the telemetry plane's Prometheus exposition directly.
func (t *Table) Metrics() []obs.Metric {
	counter := func(name string, v uint64) obs.Metric {
		return obs.Metric{Name: name, Type: "counter", Value: float64(v), Count: v}
	}
	gauge := func(name string, v int64) obs.Metric {
		return obs.Metric{Name: name, Type: "gauge", Value: float64(v)}
	}
	return []obs.Metric{
		counter("stream.evicted_flows", t.evictedFlows.Load()),
		counter("stream.evicted_tombstones", t.evictedTombstones.Load()),
		counter("stream.flows_tracked", t.flowsTracked.Load()),
		counter("stream.records_observed", t.recordsObserved.Load()),
		counter("stream.verdicts_emitted", t.verdictsEmitted.Load()),
		gauge("stream.flows_live", t.flowsLive.Load()),
		gauge("stream.flows_resident", t.flowsResident.Load()),
	}
}

// EvictedFlows returns the number of flows whose live state was evicted
// before a verdict could be emitted.
func (t *Table) EvictedFlows() uint64 { return t.evictedFlows.Load() }
