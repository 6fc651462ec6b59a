package tcpsim

// DefaultMSS is the segment size used throughout the paper's experiments
// (standard Ethernet MTU minus 40 bytes of headers).
const DefaultMSS = 1460

// Config parameterizes both ends of a connection.
type Config struct {
	// MSS is the maximum segment payload in bytes. Default 1460.
	MSS int

	// RcvWindow is the receiver's advertised window in bytes. The default
	// (4 MB) is large enough that throughput tests are never
	// receiver-limited, matching modern autotuned stacks; set it low to
	// reproduce receiver-limited flows.
	RcvWindow int

	// AckEvery makes the receiver acknowledge every n-th in-order
	// segment (RFC 1122 delayed ACKs use 2). 1 disables delayed ACKs.
	AckEvery int

	// DisableTLP turns off tail-loss probes (RFC 8985-style PTO). With
	// TLP on (the default, as in Linux), a lost flight tail is repaired
	// through SACK fast recovery in ~2 RTTs instead of waiting for a
	// full retransmission timeout.
	DisableTLP bool

	// DisableSACK turns off selective acknowledgments. With SACK on (the
	// default, as in every modern stack) the sender repairs a whole
	// window of losses in a few round trips using an RFC 6675-style
	// scoreboard; without it, recovery falls back to NewReno's
	// one-hole-per-RTT behaviour.
	DisableSACK bool

	// NewCC constructs the congestion controller for a connection.
	// Default: Reno.
	NewCC func() CongestionControl
}

func (c Config) withDefaults() Config {
	if c.MSS == 0 {
		c.MSS = DefaultMSS
	}
	if c.RcvWindow == 0 {
		c.RcvWindow = 4 << 20
	}
	if c.AckEvery == 0 {
		c.AckEvery = 2
	}
	if c.NewCC == nil {
		c.NewCC = func() CongestionControl { return &Reno{} }
	}
	return c
}
