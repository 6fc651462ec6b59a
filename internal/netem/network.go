package netem

import (
	"fmt"

	"tcpsig/internal/sim"
)

// Network owns the nodes and links of one emulated topology.
type Network struct {
	eng      *sim.Engine
	nodes    []Node
	byAddr   map[Addr]Node
	nextAddr Addr
	pktID    uint64

	// Packet free list (see pool.go). Per network, so parallel runs never
	// share state and recycling order stays deterministic.
	pooling  bool
	freePkts []*Packet
}

// New creates an empty network on the given engine.
func New(eng *sim.Engine) *Network {
	return &Network{eng: eng, byAddr: make(map[Addr]Node), nextAddr: 1, pooling: defaultPooling.Load()}
}

// Engine returns the simulation engine the network runs on.
func (n *Network) Engine() *sim.Engine { return n.eng }

func (n *Network) nextPacketID() uint64 {
	n.pktID++
	return n.pktID
}

func (n *Network) register(node Node) {
	n.nodes = append(n.nodes, node)
	n.byAddr[node.Addr()] = node
}

// origin returns the host that sent p, whose in-network count p holds
// (see pool.go), or nil for a packet no host sent. Addresses are handed out
// from 1 in registration order, so a's node is nodes[a-1].
func (n *Network) origin(p *Packet) *Host {
	if p.origin == 0 {
		return nil
	}
	return n.nodes[p.origin-1].(*Host)
}

// NewHost adds a host to the network.
func (n *Network) NewHost(name string) *Host {
	h := &Host{name: name, addr: n.nextAddr, net: n, ports: make(map[Port]Receiver)}
	n.nextAddr++
	n.register(h)
	return h
}

// NewRouter adds a router to the network.
func (n *Network) NewRouter(name string) *Router {
	r := &Router{name: name, addr: n.nextAddr, net: n, routes: make(map[Addr]*Link)}
	n.nextAddr++
	n.register(r)
	return r
}

// Node returns the node with the given address, or nil.
func (n *Network) Node(a Addr) Node { return n.byAddr[a] }

// Connect joins a and b with a pair of unidirectional links configured by
// ab (a→b) and ba (b→a). It returns both links.
func (n *Network) Connect(a, b Node, ab, ba LinkConfig) (toB, toA *Link) {
	toB = NewLink(n.eng, fmt.Sprintf("%s->%s", a.Name(), b.Name()), ab, b)
	toA = NewLink(n.eng, fmt.Sprintf("%s->%s", b.Name(), a.Name()), ba, a)
	toB.src = a
	toA.src = b
	toB.owner = n
	toA.owner = n
	a.addLink(toB)
	b.addLink(toA)
	return toB, toA
}

// ComputeRoutes fills every router's routing table with shortest-path (hop
// count) next-hop links via breadth-first search from each destination.
// Hosts need no table: they send everything up their single link.
func (n *Network) ComputeRoutes() {
	for _, dst := range n.nodes {
		// BFS backwards: find, for every router, the outgoing link that
		// starts a shortest path to dst.
		type item struct{ node Node }
		visited := map[Addr]bool{dst.Addr(): true}
		frontier := []Node{dst}
		// parentLink[a] = link from node a toward dst on a shortest path.
		for len(frontier) > 0 {
			var next []Node
			for _, cur := range frontier {
				// Look at all nodes with a link INTO cur.
				for _, cand := range n.nodes {
					if visited[cand.Addr()] {
						continue
					}
					for _, l := range cand.links() {
						if l.dst.Addr() != cur.Addr() {
							continue
						}
						visited[cand.Addr()] = true
						if r, ok := cand.(*Router); ok {
							r.AddRoute(dst.Addr(), l)
						}
						next = append(next, cand)
						break
					}
				}
			}
			frontier = next
		}
	}
}

// Links returns all links in the network, for stats inspection.
func (n *Network) Links() []*Link {
	var out []*Link
	for _, node := range n.nodes {
		out = append(out, node.links()...)
	}
	return out
}
