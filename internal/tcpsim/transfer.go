package tcpsim

import (
	"time"

	"tcpsig/internal/netem"
	"tcpsig/internal/sim"
)

// BulkServer serves every accepted connection with either a fixed number of
// bytes or a fixed-duration stream, modeling an NDT/netperf test server or a
// file server for cross-traffic generators.
type BulkServer struct {
	Listener *Listener

	bytes int64
	dur   time.Duration
}

// NewBulkServer listens on host:port. If dur > 0 each connection streams for
// dur (a throughput test); otherwise it sends bytes and closes.
func NewBulkServer(host *netem.Host, port netem.Port, cfg Config, bytes int64, dur time.Duration) *BulkServer {
	b := &BulkServer{bytes: bytes, dur: dur}
	b.Listener = Listen(host, port, cfg, func(s *Sender) {
		if b.dur > 0 {
			s.SendFor(b.dur)
		} else {
			s.Send(b.bytes)
			s.Close()
		}
	})
	return b
}

// Download is a one-shot client-side transfer handle.
type Download struct {
	Receiver *Receiver

	server *BulkServer
}

// StartDownload wires a dedicated server port on serverHost and a client on
// clientHost, starts the handshake, and returns the handle. After the
// simulation runs, Sender() and Receiver hold both endpoints' stats.
func StartDownload(clientHost, serverHost *netem.Host, clientPort, serverPort netem.Port, cfg Config, bytes int64, dur time.Duration) *Download {
	d := &Download{server: NewBulkServer(serverHost, serverPort, cfg, bytes, dur)}
	d.Receiver = NewReceiver(clientHost, clientPort, cfg)
	d.Receiver.Connect(serverHost.Addr(), serverPort)
	return d
}

// Sender returns the server-side endpoint once the connection has been
// accepted (nil before that).
func (d *Download) Sender() *Sender {
	conns := d.server.Listener.Conns()
	if len(conns) == 0 {
		return nil
	}
	return conns[0]
}

// final reports whether the download can add no more packets to either
// endpoint host's capture:
//   - the sender is closed: its FIN is acknowledged and its retransmission
//     timer is disarmed;
//   - the receiver has consumed the FIN and has no delayed-ACK or SYN timer
//     armed;
//   - neither endpoint host has a packet still in the network, so nothing
//     is left to arrive and wake either side.
//
// Each endpoint only sends from a timer or in answer to an arrival, so from
// then on neither sends again. Other traffic addressed to the endpoint hosts
// would still reach their captures; the callers' topologies have none.
func (d *Download) final() bool {
	r := d.Receiver
	if !r.done || r.delack.Armed() || r.synTimer.Armed() || r.host.InNetwork() != 0 {
		return false
	}
	conns := d.server.Listener.order
	if len(conns) == 0 {
		return false
	}
	s := conns[0]
	return s.done && !s.timer.Armed() && s.host.InNetwork() == 0
}

// RunUntilFinal runs the engine until neither endpoint host's capture can
// gain another record of this download (see final), or up to deadline for
// a download that never gets there.
func (d *Download) RunUntilFinal(deadline sim.Time) {
	d.Receiver.eng.RunUntilDone(deadline, d.final)
}

// ThroughputBps returns the client-observed goodput over the transfer
// lifetime, 0 if the transfer has not finished.
func (d *Download) ThroughputBps() float64 {
	st := d.Receiver.Stats()
	if st.FinishedAt <= st.EstablishedAt || !d.Receiver.Done() {
		return 0
	}
	return float64(st.BytesReceived*8) / (st.FinishedAt - st.EstablishedAt).Seconds()
}
