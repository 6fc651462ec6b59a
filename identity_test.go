package tcpsig

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"testing"
	"time"

	"tcpsig/internal/pcap"
	"tcpsig/internal/stream"
)

// wireSeg is one header-only TCP segment as a real capture holds it, with
// both addresses exactly as they appear in the IPv4 header.
type wireSeg struct {
	at           time.Duration
	src, dst     uint32
	sport, dport uint16
	seq, ack     uint32
	payload      int
}

// wirePcap renders segs as a libpcap stream built from the pcap package's
// layer encoders. pcap.Writer maps emulator addresses into 10/8, so it
// cannot express the client addresses these tests need on the wire.
func wirePcap(t testing.TB, segs []wireSeg) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := pcap.NewWriter(&buf).Flush(); err != nil {
		t.Fatal(err)
	}
	var frame []byte
	for _, s := range segs {
		eth := pcap.Ethernet{EtherType: pcap.EtherTypeIPv4}
		ip := pcap.IPv4{
			TotalLen: uint16(pcap.IPv4HeaderLen + pcap.TCPHeaderLen + s.payload),
			Protocol: pcap.ProtoTCP,
			Src:      s.src,
			Dst:      s.dst,
		}
		tcp := pcap.TCP{SrcPort: s.sport, DstPort: s.dport, Seq: s.seq, Ack: s.ack, Flags: pcap.TCPFlagACK, Window: 65535}
		frame = tcp.Marshal(ip.Marshal(eth.Marshal(frame[:0])))
		var hdr [16]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(s.at/time.Second))
		binary.LittleEndian.PutUint32(hdr[4:8], uint32(s.at%time.Second/time.Microsecond))
		binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(frame)))
		binary.LittleEndian.PutUint32(hdr[12:16], uint32(len(frame)+s.payload))
		buf.Write(hdr[:])
		buf.Write(frame)
	}
	return buf.Bytes()
}

// dataAndAck returns one data segment from server to client at `at` and
// its cumulative ACK rtt later.
func dataAndAck(at, rtt time.Duration, server, client uint32, seq uint32) (wireSeg, wireSeg) {
	data := wireSeg{at: at, src: server, dst: client, sport: 80, dport: 40000, seq: seq, payload: 1460}
	ack := wireSeg{at: at + rtt, src: client, dst: server, sport: 40000, dport: 80, ack: seq + 1460}
	return data, ack
}

// serveShaped classifies a capture the way `ccsig serve` does: records
// flow through a Pump into a recycling, sharded streaming table, and each
// verdict's addresses are rendered from its flow key.
func serveShaped(t *testing.T, c *Classifier, raw []byte, serverIP string) []FlowVerdict {
	t.Helper()
	ip, err := parseIPv4(serverIP)
	if err != nil {
		t.Fatal(err)
	}
	var out []FlowVerdict
	table := stream.NewTable(stream.Config{
		Classifier: c.inner,
		MaxFlows:   1_000_000,
		Shards:     8,
		Recycle:    true,
		Emit: func(res stream.FlowResult) {
			out = append(out, FlowVerdict{
				SrcIP:   ipString(uint32(res.Flow.SrcAddr)),
				SrcPort: uint16(res.Flow.SrcPort),
				DstIP:   ipString(uint32(res.Flow.DstAddr)),
				DstPort: uint16(res.Flow.DstPort),
				Verdict: res.Verdict,
				Err:     res.Err,
			})
		},
	})
	pump := stream.NewPump(table, 0)
	rd := pcap.NewReader(bytes.NewReader(raw))
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		pump.Feed(pcap.RecordToCapture(rec, ip))
	}
	pump.Close()
	table.Flush()
	return out
}

func verdictKey(fv FlowVerdict) string {
	return fmt.Sprintf("%s:%d>%s:%d", fv.SrcIP, fv.SrcPort, fv.DstIP, fv.DstPort)
}

// TestCollidingClientAddresses: two clients that share their low 24 bits
// and their port pair are two flows, on every pcap ingest path, and each
// verdict names its own client.
func TestCollidingClientAddresses(t *testing.T) {
	const server = "192.0.2.1"
	srv, _ := parseIPv4(server)
	clients := []string{"10.1.2.3", "172.1.2.3"}
	var segs []wireSeg
	var at time.Duration
	seq := uint32(1000)
	for r := 0; r < 14; r++ {
		// RTT grows a little each round so features are non-degenerate.
		rtt := 20*time.Millisecond + time.Duration(r)*2*time.Millisecond
		var acks []wireSeg
		for i, cs := range clients {
			cl, _ := parseIPv4(cs)
			data, ack := dataAndAck(at+time.Duration(i)*time.Millisecond, rtt, srv, cl, seq)
			segs = append(segs, data)
			acks = append(acks, ack)
		}
		segs = append(segs, acks...)
		seq += 1460
		at += rtt + 5*time.Millisecond
	}
	raw := wirePcap(t, segs)
	want := map[string]bool{}
	for _, cs := range clients {
		want[server+":80>"+cs+":40000"] = true
	}

	c := toyClassifier(t)
	batch, err := c.ClassifyPcap(bytes.NewReader(raw), server)
	if err != nil {
		t.Fatal(err)
	}
	paths := []struct {
		name     string
		verdicts []FlowVerdict
	}{
		{"ClassifyPcap", batch},
		{"serve", serveShaped(t, c, raw, server)},
	}
	for _, p := range paths {
		name, verdicts := p.name, p.verdicts
		if len(verdicts) != len(clients) {
			t.Fatalf("%s: %d verdicts, want %d: %+v", name, len(verdicts), len(clients), verdicts)
		}
		for _, fv := range verdicts {
			if !want[verdictKey(fv)] {
				t.Errorf("%s: verdict for unexpected flow %s", name, verdictKey(fv))
			}
			if fv.Err != nil || fv.Verdict.Class < 0 {
				t.Errorf("%s: flow %s: class %d, err %v", name, verdictKey(fv), fv.Verdict.Class, fv.Err)
			}
		}
	}

	summaries, err := SummarizePcap(bytes.NewReader(raw), server)
	if err != nil {
		t.Fatal(err)
	}
	if len(summaries) != len(clients) {
		t.Fatalf("SummarizePcap: %d flows, want %d", len(summaries), len(clients))
	}
	for _, s := range summaries {
		key := fmt.Sprintf("%s:%d>%s:%d", s.SrcIP, s.SrcPort, s.DstIP, s.DstPort)
		if !want[key] {
			t.Errorf("SummarizePcap: summary for unexpected flow %s", key)
		}
		if s.BytesSent != 14*1460 {
			t.Errorf("SummarizePcap: flow %s sent %d bytes, want %d", key, s.BytesSent, 14*1460)
		}
	}
}

// TestAddressesPastOldSideMapCap renders more one-segment flows than the
// 65,536 entries the old original-address side maps held, all from clients
// outside 10/8. Every verdict must carry the addresses written on the wire,
// and the serve-shaped streaming table must agree with ClassifyPcap flow by
// flow.
func TestAddressesPastOldSideMapCap(t *testing.T) {
	const (
		server = "192.0.2.1"
		nFlows = 1<<16 + 1000
		base   = 172<<24 | 16<<16 // 172.16.0.0
	)
	srv, _ := parseIPv4(server)
	segs := make([]wireSeg, 2*nFlows)
	for i := 0; i < nFlows; i++ {
		// Data segments 1 µs apart, then every ACK 100 ms later: the
		// stream stays in timestamp order.
		segs[i], segs[nFlows+i] = dataAndAck(time.Duration(i)*time.Microsecond, 100*time.Millisecond, srv, base+uint32(i), 1000)
	}
	raw := wirePcap(t, segs)

	c := toyClassifier(t)
	batch, err := c.ClassifyPcap(bytes.NewReader(raw), server)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != nFlows {
		t.Fatalf("ClassifyPcap: %d verdicts, want %d", len(batch), nFlows)
	}
	byKey := make(map[string]FlowVerdict, nFlows)
	for i, fv := range batch {
		wantDst := ipString(base + uint32(i))
		if fv.SrcIP != server || fv.DstIP != wantDst || fv.SrcPort != 80 || fv.DstPort != 40000 {
			t.Fatalf("verdict %d is for %s, want %s:80>%s:40000", i, verdictKey(fv), server, wantDst)
		}
		byKey[verdictKey(fv)] = fv
	}

	served := serveShaped(t, c, raw, server)
	if len(served) != nFlows {
		t.Fatalf("serve: %d verdicts, want %d", len(served), nFlows)
	}
	for _, fv := range served {
		bv, ok := byKey[verdictKey(fv)]
		if !ok {
			t.Fatalf("serve: verdict for %s, which is not on the wire", verdictKey(fv))
		}
		delete(byKey, verdictKey(fv))
		got, want := stableBytes(t, fv.Verdict, fv.Err), stableBytes(t, bv.Verdict, bv.Err)
		if !bytes.Equal(got, want) {
			t.Fatalf("flow %s diverged\nserve: %s\nbatch: %s", verdictKey(fv), got, want)
		}
	}
}
