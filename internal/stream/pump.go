package stream

import (
	"sync"
	"sync/atomic"

	"tcpsig/internal/netem"
	"tcpsig/internal/obs"
)

// Pump decouples record ingest from classification. One producer
// goroutine appends records into a slab; whole slabs cross a channel to a
// drain goroutine that observes them into the table, so the hand-off
// costs one channel operation per slab, not per record. The producer has
// a backpressure choice per record:
//
//   - Feed blocks until the table catches up — lossless, the right mode
//     when the producer is itself pull-based (reading a pcap file or a
//     fifo, where blocking simply stops consuming input).
//   - Offer never blocks: when the buffer is full the record is counted
//     as dropped and discarded — the right mode when the producer cannot
//     stall (replaying a capture at its original timing, or a live tap).
//
// The buffer is counted in records: at most buffer records are held
// between the producer's slab and the ones waiting for the drain
// goroutine, so with a stalled consumer exactly buffer records fit.
// A slab reaches the consumer when it is full or when the producer calls
// Flush, which it must do wherever it may stop producing for a while (a
// read that can block, a sleep): until then a partial slab's records wait
// with the producer.
//
// Feed, Offer, Flush and Close must all be called from one goroutine.
// The single drain goroutine serializes Observe, so a pumped table needs
// no Observe-side synchronization.
type Pump struct {
	table  *Table
	buffer int
	ch     chan []netem.CaptureRecord // hand-offs: a slab's records up to its handed-off end
	free   chan []netem.CaptureRecord // bounded free list of empty slabs
	idle   func()
	wg     sync.WaitGroup
	once   sync.Once

	// Producer-owned. cur is the slab being filled, cur[:sent] of it is
	// already handed off. room is how many more records fit, as of the
	// last look at depth; it can only understate, because depth then only
	// falls until the producer's next hand-off.
	cur  []netem.CaptureRecord
	sent int
	room int

	depth atomic.Int64  // records handed off and not yet taken by the consumer
	taken chan struct{} // a token after each take, for a Feed waiting on a full buffer

	accepted atomic.Uint64
	dropped  atomic.Uint64
}

// DefaultPumpBuffer is the ingest buffer, in records, when Config passes 0.
const DefaultPumpBuffer = 4096

// slabRecords is the slab capacity; a buffer smaller than that uses
// slabs of its own size.
const slabRecords = 256

// NewPump starts a pump draining into t. buffer is the ingest bound in
// records (0 = DefaultPumpBuffer).
func NewPump(t *Table, buffer int) *Pump {
	if buffer <= 0 {
		buffer = DefaultPumpBuffer
	}
	// The slabs after the consumer's are untaken records, all full but
	// the producer's. When that one fills too, at most buffer/size slabs
	// follow the consumer's, so two more cover the consumer's own and the
	// fresh one the producer then takes: the free list never runs dry.
	size := min(buffer, slabRecords)
	maxSlabs := buffer/size + 2
	p := &Pump{
		table:  t,
		buffer: buffer,
		// A hand-off carries at least one record, so buffer of them fit.
		ch:    make(chan []netem.CaptureRecord, buffer),
		free:  make(chan []netem.CaptureRecord, maxSlabs),
		taken: make(chan struct{}, 1),
		room:  buffer,
	}
	slabs := make([]netem.CaptureRecord, maxSlabs*size)
	for i := 0; i < maxSlabs; i++ {
		p.free <- slabs[i*size : i*size : (i+1)*size]
	}
	p.cur = <-p.free
	p.wg.Add(1)
	go p.drain()
	return p
}

// drain is the consumer. The spans of one slab arrive in order, so each
// hand-off's new records start where the previous one ended, and a
// hand-off that reaches the slab's capacity finishes it.
func (p *Pump) drain() {
	defer p.wg.Done()
	next, worked := 0, false
	for {
		var s []netem.CaptureRecord
		var ok bool
		select {
		case s, ok = <-p.ch:
		default:
			if worked && p.idle != nil {
				p.idle()
			}
			worked = false
			s, ok = <-p.ch
		}
		if !ok {
			return
		}
		recs := s[next:]
		p.depth.Add(-int64(len(recs)))
		select {
		case p.taken <- struct{}{}:
		default: // a token is already waiting
		}
		for i := range recs {
			p.table.Observe(&recs[i])
		}
		worked = true
		next = len(s)
		if next == cap(s) {
			next = 0
			p.free <- s[:0]
		}
	}
}

// OnIdle sets fn to run on the drain goroutine whenever it has observed
// records and finds no slab waiting, just before it blocks for the next
// one — the point where a consumer that batches output should flush it.
// Call it before the first Feed or Offer.
func (p *Pump) OnIdle(fn func()) { p.idle = fn }

// push appends rec to the current slab, which room has already admitted.
func (p *Pump) push(rec *netem.CaptureRecord) {
	p.cur = append(p.cur, *rec)
	p.room--
	if len(p.cur) == cap(p.cur) {
		p.Flush()
	}
}

// refresh recomputes room from the consumer's progress and reports
// whether a record fits.
func (p *Pump) refresh() bool {
	p.room = p.buffer - int(p.depth.Load()) - (len(p.cur) - p.sent)
	return p.room > 0
}

// Feed enqueues one record, blocking while the buffer is full. Must not be
// called after Close.
func (p *Pump) Feed(rec netem.CaptureRecord) {
	for p.room == 0 && !p.refresh() {
		// Full: hand the consumer what is pending and wait for a take.
		// Every take after the refresh leaves a token; an older token
		// only costs one more look.
		p.Flush()
		<-p.taken
	}
	p.push(&rec)
}

// Offer enqueues one record if buffer space is available; otherwise the
// record is dropped, counted, and false is returned. Must not be called
// after Close.
func (p *Pump) Offer(rec netem.CaptureRecord) bool {
	if p.room == 0 && !p.refresh() {
		p.dropped.Add(1)
		return false
	}
	p.push(&rec)
	return true
}

// Flush hands the records appended since the last hand-off to the
// consumer, without waiting for the slab to fill. Never blocks.
func (p *Pump) Flush() {
	n := len(p.cur) - p.sent
	if n == 0 {
		return
	}
	p.depth.Add(int64(n))
	p.accepted.Add(uint64(n))
	p.ch <- p.cur
	p.sent = len(p.cur)
	if len(p.cur) == cap(p.cur) {
		p.cur, p.sent = <-p.free, 0
	}
}

// Close hands off the partial slab, drains the remaining records and joins
// the consumer. Idempotent. The caller typically follows with Table.Flush.
func (p *Pump) Close() {
	p.once.Do(func() {
		p.Flush()
		close(p.ch)
	})
	p.wg.Wait()
}

// Accepted returns the number of records handed to the consumer; a record
// in the producer's partial slab counts once Flush or Close hands it off.
func (p *Pump) Accepted() uint64 { return p.accepted.Load() }

// Dropped returns the number of records discarded by Offer under
// backpressure.
func (p *Pump) Dropped() uint64 { return p.dropped.Load() }

// Depth returns the number of records handed off and not yet taken by the
// consumer. The slab the consumer is observing no longer counts.
func (p *Pump) Depth() int { return int(p.depth.Load()) }

// Metrics returns the pump's ingest counters and depth gauge in obs
// snapshot order, for composition with Table.Metrics on the telemetry
// plane.
func (p *Pump) Metrics() []obs.Metric {
	acc, drop := p.accepted.Load(), p.dropped.Load()
	return []obs.Metric{
		{Name: "stream.ingest_accepted", Type: "counter", Value: float64(acc), Count: acc},
		{Name: "stream.ingest_dropped", Type: "counter", Value: float64(drop), Count: drop},
		{Name: "stream.ingest_depth", Type: "gauge", Value: float64(p.depth.Load())},
	}
}
