// Package trafficgen reimplements the paper's two cross-traffic generators
// (§3.1):
//
//   - TGTrans fetches objects of sizes 10 KB .. 100 MB with frequency
//     inversely proportional to size, providing transient load that adds
//     natural variation without congesting the interconnect.
//   - TGCong runs N concurrent bulk transfers in a loop (the paper's 100
//     curl processes fetching a 100 MB file), saturating the interconnect
//     link to create external congestion.
package trafficgen

import (
	"time"

	"tcpsig/internal/netem"
	"tcpsig/internal/sim"
	"tcpsig/internal/tcpsim"
)

// ObjectSizes are TGTrans's fetch sizes in bytes (10 KB to 100 MB).
var ObjectSizes = []int64{10_000, 100_000, 1_000_000, 10_000_000, 100_000_000}

// Fetcher starts downloads from a client host, allocating ephemeral ports.
type Fetcher struct {
	Client *netem.Host
	Cfg    tcpsim.Config

	nextPort netem.Port
}

// NewFetcher returns a fetcher allocating ports from base upward.
func NewFetcher(client *netem.Host, base netem.Port, cfg tcpsim.Config) *Fetcher {
	return &Fetcher{Client: client, Cfg: cfg, nextPort: base}
}

// Fetch opens a connection to server:port and invokes onDone (which may be
// nil) when the transfer completes.
func (f *Fetcher) Fetch(server netem.Addr, port netem.Port, onDone func(*tcpsim.Receiver)) *tcpsim.Receiver {
	p := f.nextPort
	f.nextPort++
	r := tcpsim.NewReceiver(f.Client, p, f.Cfg)
	r.OnComplete(func(rr *tcpsim.Receiver) {
		f.Client.Unbind(p)
		if onDone != nil {
			onDone(rr)
		}
	})
	r.Connect(server, port)
	return r
}

// Target identifies one TGTrans object: a server port that serves a fixed
// object size (see ServeObjects).
type Target struct {
	Server netem.Addr
	Port   netem.Port
	Size   int64
}

// ServeObjects binds one bulk listener per object size on host, starting at
// basePort, and returns the matching targets.
func ServeObjects(host *netem.Host, basePort netem.Port, cfg tcpsim.Config) []Target {
	out := make([]Target, 0, len(ObjectSizes))
	for i, size := range ObjectSizes {
		port := basePort + netem.Port(i)
		tcpsim.NewBulkServer(host, port, cfg, size, 0)
		out = append(out, Target{Server: host.Addr(), Port: port, Size: size})
	}
	return out
}

// TGTransStats counts generator activity.
type TGTransStats struct {
	Started  uint64
	Finished uint64
	Bytes    int64
}

// TGTrans is the transient cross-traffic generator.
type TGTrans struct {
	eng     *sim.Engine
	fetcher *Fetcher
	targets []Target
	weights []float64 // cumulative, normalized
	meanGap time.Duration

	running bool
	stats   TGTransStats
}

// NewTGTrans builds a generator fetching from targets with exponential
// inter-arrival times of mean meanGap.
func NewTGTrans(fetcher *Fetcher, targets []Target, meanGap time.Duration) *TGTrans {
	g := &TGTrans{
		eng:     fetcher.Client.Engine(),
		fetcher: fetcher,
		targets: targets,
		meanGap: meanGap,
	}
	var total float64
	for _, t := range targets {
		total += 1 / float64(t.Size)
	}
	acc := 0.0
	for _, t := range targets {
		acc += 1 / float64(t.Size) / total
		g.weights = append(g.weights, acc)
	}
	return g
}

// Stats returns a snapshot of the generator counters.
func (g *TGTrans) Stats() TGTransStats { return g.stats }

// Start begins generating fetches until Stop.
func (g *TGTrans) Start() {
	if g.running {
		return
	}
	g.running = true
	g.scheduleNext()
}

// Stop halts new fetches (in-flight transfers drain naturally).
func (g *TGTrans) Stop() { g.running = false }

func (g *TGTrans) scheduleNext() {
	if !g.running {
		return
	}
	gap := time.Duration(g.eng.Rand().ExpFloat64() * float64(g.meanGap))
	if gap > 10*g.meanGap {
		gap = 10 * g.meanGap
	}
	g.eng.Schedule(gap, func() {
		if !g.running {
			return
		}
		g.fetchOne()
		g.scheduleNext()
	})
}

func (g *TGTrans) fetchOne() {
	u := g.eng.Rand().Float64()
	idx := len(g.targets) - 1
	for i, w := range g.weights {
		if u <= w {
			idx = i
			break
		}
	}
	t := g.targets[idx]
	g.stats.Started++
	g.fetcher.Fetch(t.Server, t.Port, func(r *tcpsim.Receiver) {
		g.stats.Finished++
		g.stats.Bytes += r.BytesReceived()
	})
}

// TGCong is the interconnect-saturating generator: Concurrency parallel
// loops each repeatedly fetching a bulk object.
type TGCong struct {
	eng     *sim.Engine
	fetcher *Fetcher
	server  netem.Addr
	port    netem.Port

	running  bool
	active   int
	finished uint64
	bytes    int64
}

// NewTGCong builds a generator that keeps concurrency transfers from
// server:port running at all times once started.
func NewTGCong(fetcher *Fetcher, server netem.Addr, port netem.Port) *TGCong {
	return &TGCong{eng: fetcher.Client.Engine(), fetcher: fetcher, server: server, port: port}
}

// Start launches n concurrent fetch loops immediately.
func (g *TGCong) Start(n int) { g.StartStaggered(n, 0) }

// StartStaggered launches n loops with start times spread uniformly over
// ramp, desynchronizing the flows as independently started processes would
// be in the paper's testbed.
func (g *TGCong) StartStaggered(n int, ramp time.Duration) {
	g.running = true
	for i := 0; i < n; i++ {
		if ramp <= 0 {
			g.loop()
			continue
		}
		d := time.Duration(g.eng.Rand().Int63n(int64(ramp)))
		g.eng.Schedule(d, g.loop)
	}
}

// Stop ends the loops after their current transfers.
func (g *TGCong) Stop() { g.running = false }

// Active returns how many transfers are currently running.
func (g *TGCong) Active() int { return g.active }

// Finished returns completed transfer count.
func (g *TGCong) Finished() uint64 { return g.finished }

// Bytes returns total bytes fetched.
func (g *TGCong) Bytes() int64 { return g.bytes }

func (g *TGCong) loop() {
	if !g.running {
		return
	}
	g.active++
	g.fetcher.Fetch(g.server, g.port, func(r *tcpsim.Receiver) {
		g.active--
		g.finished++
		g.bytes += r.BytesReceived()
		g.loop()
	})
}
