package tcpsim

import "time"

// Linux-like clamp bounds for the retransmission timeout.
const (
	minRTO = 200 * time.Millisecond
	maxRTO = 120 * time.Second
)

// RTOEstimator implements the RFC 6298 retransmission timeout computation:
// SRTT/RTTVAR smoothing, a lower bound, and exponential backoff.
type RTOEstimator struct {
	srtt   time.Duration
	rttvar time.Duration
	rto    time.Duration
	valid  bool
}

// NewRTOEstimator returns an estimator clamped to 200 ms / 120 s. The
// initial RTO is 1 s.
func NewRTOEstimator() *RTOEstimator {
	return &RTOEstimator{rto: time.Second}
}

// Sample feeds a new RTT measurement.
func (e *RTOEstimator) Sample(rtt time.Duration) {
	if rtt <= 0 {
		return
	}
	if !e.valid {
		e.srtt = rtt
		e.rttvar = rtt / 2
		e.valid = true
	} else {
		diff := e.srtt - rtt
		if diff < 0 {
			diff = -diff
		}
		e.rttvar = (3*e.rttvar + diff) / 4
		e.srtt = (7*e.srtt + rtt) / 8
	}
	e.rto = e.srtt + 4*e.rttvar
	e.clamp()
}

func (e *RTOEstimator) clamp() {
	e.rto = min(max(e.rto, minRTO), maxRTO)
}

// RTO returns the current retransmission timeout.
func (e *RTOEstimator) RTO() time.Duration { return e.rto }

// SRTT returns the smoothed RTT (0 until the first sample).
func (e *RTOEstimator) SRTT() time.Duration {
	if !e.valid {
		return 0
	}
	return e.srtt
}

// Backoff doubles the RTO after a timeout (Karn's algorithm).
func (e *RTOEstimator) Backoff() {
	e.rto *= 2
	e.clamp()
}

// ResetBackoff recomputes the RTO from the current smoothed estimates,
// discarding exponential backoff. Called on cumulative ACK progress.
func (e *RTOEstimator) ResetBackoff() {
	if !e.valid {
		e.rto = time.Second
		return
	}
	e.rto = e.srtt + 4*e.rttvar
	e.clamp()
}
