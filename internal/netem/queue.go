package netem

import (
	"math/rand"
	"time"

	"tcpsig/internal/sim"
)

// Queue is a buffer-admission discipline at the head of a link.
//
// The link calls Admit when a packet arrives (false = drop) and Release when
// the packet finishes serializing. Byte occupancy between those calls models
// the buffer the paper's technique measures through RTT inflation.
type Queue interface {
	Admit(size int) bool
	Release(size int)
	Bytes() int
	Capacity() int // capacity in bytes; 0 means unlimited
}

// BufferBytes converts a buffer depth expressed as queueing delay at a given
// link rate (the paper sizes buffers as "20 ms", "50 ms", "100 ms") into a
// byte capacity.
func BufferBytes(rateBps float64, depth time.Duration) int {
	return int(rateBps / 8 * depth.Seconds())
}

// PeakQueue is the optional occupancy-high-water-mark interface. Both
// built-in disciplines implement it; the conformance suite uses it to
// assert that queue depth never exceeded the configured buffer size.
type PeakQueue interface {
	Queue

	// Peak returns the maximum byte occupancy ever reached after an
	// admission.
	Peak() int
}

// DropTail is a FIFO byte-limited buffer, the default discipline everywhere
// in the paper's testbed.
type DropTail struct {
	capBytes int
	bytes    int
	peak     int

	// Drops counts packets rejected by Admit.
	Drops uint64
}

// NewDropTail returns a buffer holding at most capBytes. capBytes <= 0 means
// unlimited.
func NewDropTail(capBytes int) *DropTail {
	return &DropTail{capBytes: capBytes}
}

// NewDropTailDepth returns a drop-tail buffer sized as depth of queueing
// delay at rateBps.
func NewDropTailDepth(rateBps float64, depth time.Duration) *DropTail {
	return NewDropTail(BufferBytes(rateBps, depth))
}

// Admit implements Queue.
func (q *DropTail) Admit(size int) bool {
	if q.capBytes > 0 && q.bytes+size > q.capBytes {
		q.Drops++
		return false
	}
	q.bytes += size
	if q.bytes > q.peak {
		q.peak = q.bytes
	}
	return true
}

// Release implements Queue.
func (q *DropTail) Release(size int) { q.bytes -= size }

// Bytes implements Queue.
func (q *DropTail) Bytes() int { return q.bytes }

// Capacity implements Queue.
func (q *DropTail) Capacity() int { return q.capBytes }

// Peak implements PeakQueue.
func (q *DropTail) Peak() int { return q.peak }

// RED implements Random Early Detection (Floyd & Jacobson '93): packets are
// dropped probabilistically as the EWMA of the queue occupancy moves between
// a minimum and maximum threshold. Section 6 of the paper argues the
// congestion signature survives AQM as long as buffering still raises RTT;
// the RED ablation bench exercises that claim.
type RED struct {
	eng      *sim.Engine
	capBytes int
	minTh    int // bytes
	maxTh    int // bytes
	maxP     float64
	// Weight is the queue-average EWMA weight (default 0.002; raise for
	// low-rate links so the average tracks slow-start bursts).
	Weight float64

	// ECN, when true, marks packets (Congestion Experienced) instead of
	// early-dropping them; only queue overflow still drops. The link
	// passes the mark to the packet's ECE bit.
	ECN bool

	// Marks counts ECN-marked packets.
	Marks uint64

	bytes int
	peak  int
	avg   float64
	count int // packets since last drop

	idleSince sim.Time
	idle      bool
	rateBps   float64 // drain rate used to age avg across idle periods

	Drops      uint64
	EarlyDrops uint64
}

// NewRED constructs a RED queue. minTh and maxTh are byte thresholds; the
// physical capacity is capBytes.
func NewRED(eng *sim.Engine, capBytes, minTh, maxTh int, maxP float64, rateBps float64) *RED {
	return &RED{
		eng:      eng,
		capBytes: capBytes,
		minTh:    minTh,
		maxTh:    maxTh,
		maxP:     maxP,
		Weight:   0.002,
		idle:     true,
		rateBps:  rateBps,
	}
}

// AdmitMark reports both admission and whether the packet should be
// ECN-marked. Links use this when the queue supports marking.
func (q *RED) AdmitMark(size int) (admit, mark bool) {
	admit = q.admit(size, &mark)
	return admit, mark
}

// Admit implements Queue with RED's probabilistic early drop.
func (q *RED) Admit(size int) bool {
	var mark bool
	return q.admit(size, &mark)
}

// admit is the shared RED admission decision; mark reports ECN marking.
func (q *RED) admit(size int, mark *bool) bool {
	if q.idle {
		// Age the average across the idle period as if the queue had
		// drained m small packets.
		idleTime := q.eng.Now() - q.idleSince
		m := q.rateBps / 8 * idleTime.Seconds() / 500
		for i := 0; i < int(m) && q.avg > 0; i++ {
			q.avg *= 1 - q.Weight
		}
		q.idle = false
	}
	q.avg = (1-q.Weight)*q.avg + q.Weight*float64(q.bytes)

	drop := false
	early := false
	switch {
	case q.capBytes > 0 && q.bytes+size > q.capBytes:
		drop = true
	case q.avg >= float64(q.maxTh):
		drop = true
		early = true
	case q.avg >= float64(q.minTh):
		pb := q.maxP * (q.avg - float64(q.minTh)) / float64(q.maxTh-q.minTh)
		pa := pb / (1 - float64(q.count)*pb)
		if pa < 0 || pa > 1 {
			pa = 1
		}
		if q.eng.Rand().Float64() < pa {
			drop = true
			early = true
		} else {
			q.count++
		}
	default:
		q.count = 0
	}
	if drop && early && q.ECN {
		// Mark instead of dropping (RFC 3168): the packet is admitted
		// carrying Congestion Experienced.
		q.count = 0
		q.Marks++
		*mark = true
		q.bytes += size
		if q.bytes > q.peak {
			q.peak = q.bytes
		}
		return true
	}
	if drop {
		if early {
			q.EarlyDrops++
		}
		q.Drops++
		q.count = 0
		return false
	}
	q.bytes += size
	if q.bytes > q.peak {
		q.peak = q.bytes
	}
	return true
}

// Release implements Queue.
func (q *RED) Release(size int) {
	q.bytes -= size
	if q.bytes <= 0 {
		q.idle = true
		q.idleSince = q.eng.Now()
	}
}

// Bytes implements Queue.
func (q *RED) Bytes() int { return q.bytes }

// Capacity implements Queue.
func (q *RED) Capacity() int { return q.capBytes }

// Peak implements PeakQueue.
func (q *RED) Peak() int { return q.peak }

// TokenBucket meters departures at a sustained rate with a burst allowance,
// matching the paper's tc token-bucket shaper (5 KByte burst).
type TokenBucket struct {
	RateBps    float64
	BurstBytes float64

	tokens float64
	last   sim.Time
}

// NewTokenBucket returns a bucket that starts full.
func NewTokenBucket(rateBps float64, burstBytes int) *TokenBucket {
	return &TokenBucket{RateBps: rateBps, BurstBytes: float64(burstBytes), tokens: float64(burstBytes)}
}

// ReadyAfter returns how long after now the bucket can release a packet of
// size bytes, and commits the spend at that future time. It must be called
// once per departing packet in departure order; now must not decrease across
// calls.
func (b *TokenBucket) ReadyAfter(now sim.Time, size int) time.Duration {
	// Refill.
	elapsed := now - b.last
	if elapsed > 0 {
		b.tokens += b.RateBps / 8 * elapsed.Seconds()
		if b.tokens > b.BurstBytes {
			b.tokens = b.BurstBytes
		}
	}
	b.last = now
	need := float64(size)
	if b.tokens >= need {
		b.tokens -= need
		return 0
	}
	deficit := need - b.tokens
	wait := time.Duration(deficit / (b.RateBps / 8) * float64(time.Second))
	// The packet consumes all current tokens plus the refill during wait.
	b.tokens = 0
	b.last = now + wait
	return wait
}

// jitterIn returns a uniform random duration in [-j, +j].
func jitterIn(rng *rand.Rand, j time.Duration) time.Duration {
	if j <= 0 {
		return 0
	}
	return time.Duration(rng.Int63n(int64(2*j))) - j
}
