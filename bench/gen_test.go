package main

import (
	"bytes"
	"io"
	"math/rand"
	"slices"
	"testing"
	"time"
)

func testBases(t *testing.T) []base {
	t.Helper()
	bases, err := loadBases(smallSize.bases)
	if err != nil {
		t.Fatal(err)
	}
	return bases
}

func renderBytes(t *testing.T, bases []base, flows []flowSpec) ([]byte, rendered) {
	t.Helper()
	var buf bytes.Buffer
	r, err := render(&buf, bases, flows)
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), r
}

func TestSameSeedSameBytes(t *testing.T) {
	bases := testBases(t)
	gen := func(seed int64) ([]byte, []byte) {
		long, _ := renderBytes(t, bases, longFlows(rand.New(rand.NewSource(seed)), bases, 8, 2000, time.Second))
		short, _ := renderBytes(t, bases, shortFlows(rand.New(rand.NewSource(seed)), bases, 20_000, 20_000))
		return long, short
	}
	l1, s1 := gen(3)
	l2, s2 := gen(3)
	if !bytes.Equal(l1, l2) || !bytes.Equal(s1, s2) {
		t.Fatal("the same seed rendered different bytes")
	}
	l3, s3 := gen(4)
	if bytes.Equal(l1, l3) || bytes.Equal(s1, s3) {
		t.Fatal("different seeds rendered the same bytes")
	}
	if want := pcapHeaderBytes + recordBytes*(len(l1)-pcapHeaderBytes)/recordBytes; len(l1) != want {
		t.Fatalf("%d bytes is not a header plus whole %d-byte records", len(l1), recordBytes)
	}
}

func TestClientAddressesUniqueInLow24Bits(t *testing.T) {
	clients := uniqueClients(rand.New(rand.NewSource(1)), 50_000)
	seen := map[uint32]bool{serverIP & 0xffffff: true}
	for _, c := range clients {
		low := c & 0xffffff
		if seen[low] {
			t.Fatalf("client %s collides in its low 24 bits", ipString(c))
		}
		seen[low] = true
		if top := c >> 24; top == 10 || top == 127 || top == 0 {
			t.Fatalf("client %s is in a reserved /8", ipString(c))
		}
	}
}

func TestOpenLoopScheduleFixedBySeed(t *testing.T) {
	bases := testBases(t)
	schedule := func(seed int64) ([]flowSpec, rendered) {
		flows := shortFlows(rand.New(rand.NewSource(seed)), bases, 30_000, 50_000)
		_, r := renderBytes(t, bases, flows)
		return flows, r
	}
	f1, r1 := schedule(9)
	f2, r2 := schedule(9)
	if !slices.Equal(f1, f2) || !slices.Equal(r1.CloseIdx, r2.CloseIdx) || r1.Records != r2.Records {
		t.Fatal("the same seed gave a different schedule")
	}
	early := 0
	for _, c := range r1.CloseIdx {
		if c < 0 {
			early++
		}
	}
	if want := len(f1) / 5; early < want || early > want+1 {
		t.Fatalf("%d of %d flows cut before slow start ends, want one in five", early, len(f1))
	}
}

// slowWriter stalls every write, like a reader that cannot keep up.
type slowWriter struct{ d time.Duration }

func (w slowWriter) Write(p []byte) (int, error) {
	time.Sleep(w.d)
	return len(p), nil
}

func TestOpenLoopSlowReaderRaisesLagNotDueTimes(t *testing.T) {
	const n, rate = 4000, 100_000.0 // 40 ms of schedule
	src := make([]byte, pcapHeaderBytes+n*recordBytes)
	run := func(w io.Writer) []batch {
		bs, err := openLoop(w, bytes.NewReader(src), n, rate, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		next := 0
		for _, b := range bs {
			if b.First != next || b.Due != dueOffset(b.First, rate) {
				t.Fatalf("batch %+v: schedule moved (want first %d due %v)", b, next, dueOffset(next, rate))
			}
			next += b.N
		}
		if next != n {
			t.Fatalf("wrote %d records, want %d", next, n)
		}
		return bs
	}
	fast := genLagP99(run(io.Discard))
	slow := genLagP99(run(slowWriter{5 * time.Millisecond}))
	if slow < fast+5*time.Millisecond {
		t.Fatalf("slow reader lag p99 %v, fast %v: the stall did not show", slow, fast)
	}
}
