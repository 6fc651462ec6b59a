package main

import (
	"bufio"
	"bytes"
	"container/heap"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"os"
	"sync"
	"time"

	"tcpsig/internal/flowrtt"
	"tcpsig/internal/netem"
	"tcpsig/internal/pcap"
	"tcpsig/internal/testbed"
)

// serverIP is the capture point's address in every generated pcap.
const serverIP = 198<<24 | 51<<16 | 100<<8 | 10 // 198.51.100.10

const serverIPString = "198.51.100.10"

// recordBytes is the on-disk size of one generated record: a 16-byte pcap
// record header plus a 54-byte Ethernet/IPv4/TCP header-only frame, the
// layout pcap.Writer emits.
const recordBytes = 16 + pcap.EthernetHeaderLen + pcap.IPv4HeaderLen + pcap.TCPHeaderLen

// pcapHeaderBytes is the libpcap global header length.
const pcapHeaderBytes = 24

// epoch is the absolute capture time of trace time 0.
const epoch = 1_500_000_000 * time.Second

// baseCell is one emulated throughput test whose capture seeds cloned flows.
// The library is fixed: every benchmark seed offers the same traffic mix,
// and the seed picks clones, start times, addresses, ports and cut points.
type baseCell struct {
	Name     string
	RateMbps float64
	Buffer   time.Duration
	Cong     int
	Seed     int64
}

var baseLibrary = []baseCell{
	{"self-10M-20ms", 10, 20 * time.Millisecond, 0, 101},
	{"self-20M-100ms", 20, 100 * time.Millisecond, 0, 102},
	{"self-50M-20ms", 50, 20 * time.Millisecond, 0, 103},
	{"self-50M-100ms", 50, 100 * time.Millisecond, 0, 104},
	{"external-20M-20ms", 20, 20 * time.Millisecond, 100, 105},
	{"external-50M-100ms", 50, 100 * time.Millisecond, 100, 106},
}

func (c baseCell) config() testbed.Config {
	return testbed.Config{
		Access: testbed.AccessParams{
			RateMbps: c.RateMbps,
			Latency:  20 * time.Millisecond,
			Jitter:   2 * time.Millisecond,
			Buffer:   c.Buffer,
		},
		CongFlows:  c.Cong,
		TransCross: true,
		Seed:       c.Seed,
	}
}

// rec is one packet of a base flow, reduced to what a header-only capture
// holds. Times are relative to the flow's first packet.
type rec struct {
	at      time.Duration
	seq     uint32
	ack     uint32
	payload uint16
	window  uint16
	flags   uint8 // pcap TCP flag bits
	out     bool  // server → client
}

// base is one captured test flow, ready to clone.
type base struct {
	name    string
	port    uint16 // server port
	recs    []rec
	closeAt int // index of the record that ends slow start; -1 if none
}

// newBase extracts the capture's first data flow. closeAt is found by
// decoding the flow's own rendered bytes, so it is the record on which
// ccsig's decode path sees slow start end.
func newBase(name string, capt *netem.Capture) (base, error) {
	flows := flowrtt.Flows(capt.Records)
	if len(flows) == 0 {
		return base{}, fmt.Errorf("base %s: no data flow captured", name)
	}
	key := flows[0]
	b := base{name: name, port: uint16(key.SrcPort), closeAt: -1}
	var t0 time.Duration
	for i := range capt.Records {
		cr := &capt.Records[i]
		out := cr.Dir == netem.DirOut && cr.Pkt.Flow == key
		if !out && !(cr.Dir == netem.DirIn && cr.Pkt.Flow == key.Reverse()) {
			continue
		}
		if len(b.recs) == 0 {
			t0 = cr.At
		}
		w := cr.Pkt.Seg.Window
		if w > 65535 {
			w = 65535
		}
		b.recs = append(b.recs, rec{
			at:      cr.At - t0,
			seq:     cr.Pkt.Seg.Seq,
			ack:     cr.Pkt.Seg.Ack,
			payload: uint16(cr.Pkt.Seg.PayloadLen),
			window:  uint16(w),
			flags:   pcapFlags(cr.Pkt.Seg.Flags),
			out:     out,
		})
	}
	var err error
	b.closeAt, _, err = decodeBase(b)
	return b, err
}

// decodeBase renders a base flow alone, decodes it as ccsig does and runs
// the flow tracker over it. It returns the index of the record on which
// slow start ends (-1 if it never does) and the finished analysis.
func decodeBase(b base) (int, *flowrtt.FlowInfo, error) {
	const client = 11 << 24
	var buf bytes.Buffer
	if _, err := render(&buf, []base{b}, []flowSpec{{client: client, port: 40000, n: len(b.recs)}}); err != nil {
		return 0, nil, err
	}
	rd := pcap.NewReader(&buf)
	tr := flowrtt.NewTracker(netem.FlowKey{
		SrcAddr: pcap.IPToAddr(serverIP), DstAddr: pcap.IPToAddr(client),
		SrcPort: netem.Port(b.port), DstPort: 40000,
	})
	closeAt := -1
	for i := 0; ; i++ {
		r, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, nil, err
		}
		crec := pcap.RecordToCapture(r, serverIP)
		if tr.Observe(&crec) {
			closeAt = i
		}
	}
	info, err := tr.Finish()
	return closeAt, info, err
}

func pcapFlags(f uint8) uint8 {
	var out uint8
	if f&netem.FlagSYN != 0 {
		out |= pcap.TCPFlagSYN
	}
	if f&netem.FlagACK != 0 {
		out |= pcap.TCPFlagACK
	}
	if f&netem.FlagFIN != 0 {
		out |= pcap.TCPFlagFIN
	}
	if f&netem.FlagRST != 0 {
		out |= pcap.TCPFlagRST
	}
	return out
}

// loadBases runs the base library on up to two goroutines.
func loadBases(cells []baseCell) ([]base, error) {
	out := make([]base, len(cells))
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2) // a semaphore: set-up uses at most two cores
	for i, c := range cells {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, c baseCell) {
			defer wg.Done()
			defer func() { <-sem }()
			var capt *netem.Capture
			cfg := c.config()
			cfg.Capture = func(x *netem.Capture) { capt = x }
			if _, err := testbed.Run(cfg); err != nil {
				errs[i] = fmt.Errorf("base %s: %w", c.Name, err)
				return
			}
			out[i], errs[i] = newBase(c.Name, capt)
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// flowSpec is one cloned flow: a prefix of a base flow replayed with a new
// client address and port, starting at a trace-time offset.
type flowSpec struct {
	base   int
	client uint32
	port   uint16
	start  time.Duration
	n      int // records replayed from the base
}

// key is the flow's NDJSON identity in the data direction.
func (f flowSpec) key(serverPort uint16) string {
	return flowKey(ipString(serverIP), serverPort, ipString(f.client), f.port)
}

func flowKey(srcIP string, srcPort uint16, dstIP string, dstPort uint16) string {
	return fmt.Sprintf("%s:%d>%s:%d", srcIP, srcPort, dstIP, dstPort)
}

func ipString(ip uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", ip>>24, ip>>16&0xff, ip>>8&0xff, ip&0xff)
}

// uniqueClients draws n client addresses whose low 24 bits are distinct
// from each other and from the server's, so pcap.IPToAddr's 24-bit masking
// cannot merge two flows.
func uniqueClients(rng *rand.Rand, n int) []uint32 {
	used := map[uint32]bool{serverIP & 0xffffff: true}
	out := make([]uint32, 0, n)
	for len(out) < n {
		low := uint32(rng.Intn(1 << 24))
		if used[low] {
			continue
		}
		used[low] = true
		top := uint32(11 + rng.Intn(212)) // 11..222, never 10/8
		if top == 127 {
			top = 128
		}
		out = append(out, top<<24|low)
	}
	return out
}

// blockOrder returns n base indices in which every block of len(bases)
// holds each base once, in a seeded order. It fixes the traffic mix per
// seed while the seed still decides the interleaving.
func blockOrder(rng *rand.Rand, nBases, n int) []int {
	out := make([]int, 0, n)
	for len(out) < n {
		for _, b := range rng.Perm(nBases) {
			if len(out) < n {
				out = append(out, b)
			}
		}
	}
	return out
}

// longFlows clones nFlows base flows, each cut to at most maxRecords
// records. Flow i starts at a random point of the i-th of nFlows equal
// slots of span, so every seed spreads the load over span alike.
func longFlows(rng *rand.Rand, bases []base, nFlows, maxRecords int, span time.Duration) []flowSpec {
	order := blockOrder(rng, len(bases), nFlows)
	clients := uniqueClients(rng, nFlows)
	slot := int64(span) / int64(nFlows)
	flows := make([]flowSpec, nFlows)
	for i := range flows {
		flows[i] = flowSpec{
			base:   order[i],
			client: clients[i],
			port:   uint16(1024 + rng.Intn(64512)),
			start:  time.Duration(int64(i)*slot + rng.Int63n(slot)),
			n:      min(len(bases[order[i]].recs), maxRecords),
		}
	}
	return flows
}

// shortFlows clones base prefixes until they hold at least target records.
// Four flows in five are cut 80-120 records after the record that ends
// slow start; the fifth is cut before it, so it stays live until EOF. Flow
// k starts when the records before it would have been sent at rate, so the
// trace's own record rate matches the open-loop schedule.
func shortFlows(rng *rand.Rand, bases []base, target int, rate float64) []flowSpec {
	var flows []flowSpec
	total := 0
	var order []int
	early := 0
	for total < target {
		if len(order) == 0 {
			order = blockOrder(rng, len(bases), len(bases))
		}
		if len(flows)%5 == 0 {
			early = rng.Intn(5)
		}
		bi := order[0]
		order = order[1:]
		b := bases[bi]
		n := len(b.recs)
		if b.closeAt > 0 {
			if len(flows)%5 == early {
				n = b.closeAt/2 + rng.Intn(b.closeAt-b.closeAt/2)
			} else {
				n = b.closeAt + 80 + rng.Intn(41)
			}
		}
		n = min(max(n, 1), len(b.recs))
		flows = append(flows, flowSpec{
			base:  bi,
			port:  uint16(1024 + rng.Intn(64512)),
			start: time.Duration(float64(total)/rate*float64(time.Second)) + time.Duration(rng.Int63n(int64(5*time.Millisecond))),
			n:     n,
		})
		total += n
	}
	for i, c := range uniqueClients(rng, len(flows)) {
		flows[i].client = c
	}
	return flows
}

// sequentialFlows lays bases end to end, one flow each, 100 ms apart.
func sequentialFlows(rng *rand.Rand, bases []base) []flowSpec {
	clients := uniqueClients(rng, len(bases))
	flows := make([]flowSpec, len(bases))
	var t time.Duration
	for i, b := range bases {
		flows[i] = flowSpec{base: i, client: clients[i], port: uint16(1024 + rng.Intn(64512)), start: t, n: len(b.recs)}
		if len(b.recs) > 0 {
			t += b.recs[len(b.recs)-1].at
		}
		t += 100 * time.Millisecond
	}
	return flows
}

// rendered describes a generated pcap stream.
type rendered struct {
	Records  int
	CloseIdx []int // per flow: global index of its slow-start-ending record, -1 if none
}

// cursor walks one flow during the merge.
type cursor struct {
	flow int
	i    int
	at   time.Duration
}

type cursorHeap []cursor

func (h cursorHeap) Len() int { return len(h) }
func (h cursorHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].flow < h[j].flow
}
func (h cursorHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *cursorHeap) Push(x any)   { *h = append(*h, x.(cursor)) }
func (h *cursorHeap) Pop() any {
	old := *h
	c := old[len(old)-1]
	*h = old[:len(old)-1]
	return c
}

// render writes the flows as one libpcap stream in capture-time order. It
// merges through a min-heap of per-flow cursors, so the trace is never held
// in memory.
func render(w io.Writer, bases []base, flows []flowSpec) (rendered, error) {
	bw := bufio.NewWriterSize(w, 1<<20)
	if err := pcap.NewWriter(bw).Flush(); err != nil {
		return rendered{}, err
	}
	out := rendered{CloseIdx: make([]int, len(flows))}
	h := make(cursorHeap, 0, len(flows))
	for i, f := range flows {
		out.CloseIdx[i] = -1
		if f.n > 0 {
			h = append(h, cursor{flow: i, at: f.start})
		}
	}
	heap.Init(&h)
	frame := make([]byte, 0, recordBytes)
	for len(h) > 0 {
		c := &h[0]
		f := &flows[c.flow]
		b := &bases[f.base]
		r := &b.recs[c.i]
		if c.i == b.closeAt {
			out.CloseIdx[c.flow] = out.Records
		}
		frame = appendRecord(frame[:0], f, b.port, r)
		if _, err := bw.Write(frame); err != nil {
			return rendered{}, err
		}
		out.Records++
		if c.i+1 < f.n {
			c.i++
			c.at = f.start + b.recs[c.i].at
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
	return out, bw.Flush()
}

// appendRecord encodes one record of flow f as a pcap record header plus
// a header-only frame.
func appendRecord(b []byte, f *flowSpec, serverPort uint16, r *rec) []byte {
	ts := epoch + f.start + r.at
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(ts/time.Second))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(ts%time.Second/time.Microsecond))
	frameLen := recordBytes - 16
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(frameLen))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(frameLen+int(r.payload)))
	b = append(b, hdr[:]...)
	eth := pcap.Ethernet{EtherType: pcap.EtherTypeIPv4}
	b = eth.Marshal(b)
	ip := pcap.IPv4{
		TotalLen: uint16(pcap.IPv4HeaderLen + pcap.TCPHeaderLen + int(r.payload)),
		Protocol: pcap.ProtoTCP,
		Src:      serverIP,
		Dst:      f.client,
	}
	tcp := pcap.TCP{SrcPort: serverPort, DstPort: f.port, Seq: r.seq, Ack: r.ack, Flags: r.flags, Window: r.window}
	if !r.out {
		ip.Src, ip.Dst = ip.Dst, ip.Src
		tcp.SrcPort, tcp.DstPort = tcp.DstPort, tcp.SrcPort
	}
	b = ip.Marshal(b)
	return tcp.Marshal(b)
}

// input is a rendered pcap file plus what the checks need to know about it.
type input struct {
	Path     string
	Digest   string // sha256 of the file
	Flows    []flowSpec
	Keys     []string // NDJSON identity per flow
	Rendered rendered
}

// writeInput renders flows to path and digests the bytes on the way.
func writeInput(path string, bases []base, flows []flowSpec) (*input, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	r, err := render(io.MultiWriter(f, h), bases, flows)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("rendering %s: %w", path, err)
	}
	in := &input{Path: path, Digest: hexSum(h), Flows: flows, Rendered: r}
	for _, fl := range flows {
		in.Keys = append(in.Keys, fl.key(bases[fl.base].port))
	}
	return in, nil
}

func hexSum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

func fileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hexSum(h), nil
}

// writeHeaderOnly writes a pcap file with no records: the input for
// timing a program's launch.
func writeHeaderOnly(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = pcap.NewWriter(f).Flush()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
