package netem

import (
	"reflect"
	"strings"
	"testing"

	"tcpsig/internal/sim"
)

// fillNonZero sets every settable field of v (recursively) to a nonzero
// value, so a reset that misses any field is caught by the zero check that
// follows. It fails the test on a kind it does not know how to fill: a new
// field type must be added here explicitly, never silently skipped.
func fillNonZero(t *testing.T, v reflect.Value, path string) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(7)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(7)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(7)
	case reflect.String:
		v.SetString("x")
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 1, 4)
		fillNonZero(t, s.Index(0), path+"[0]")
		v.Set(s)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			name := path + "." + v.Type().Field(i).Name
			if !f.CanSet() {
				// Unexported fields are invisible to reflection. Packet
				// carries two: the pool's own double-free marker, which
				// FreePacket manages after reset and the double-free test
				// covers, and the in-network origin, which the audit sets
				// by hand. Anything else must be made exported or handled
				// here.
				if got := v.Type().Field(i).Name; got != "free" && got != "origin" {
					t.Fatalf("unexported field %s (%s) not covered by the reset audit", name, got)
				}
				continue
			}
			fillNonZero(t, f, name)
		}
	default:
		t.Fatalf("fillNonZero: unhandled kind %s at %s — teach the audit about it", v.Kind(), path)
	}
}

// TestPacketResetAudit fills every field of a Packet — including ones added
// after this test was written, via reflection — frees it into the pool, and
// asserts the recycled packet is indistinguishable from a fresh one except
// for the retained Sack capacity.
func TestPacketResetAudit(t *testing.T) {
	n := New(sim.NewEngine(1))
	h := n.NewHost("h")
	p := n.NewPacket()
	fillNonZero(t, reflect.ValueOf(p).Elem(), "Packet")
	sackCap := cap(p.Seg.Sack)
	if sackCap == 0 {
		t.Fatal("filler did not populate Seg.Sack")
	}
	// In the network on h's account, as Host.Send leaves it.
	p.origin = h.Addr()
	h.inNet++

	n.FreePacket(p)
	if got := h.InNetwork(); got != 0 {
		t.Errorf("InNetwork after free = %d, want 0", got)
	}
	q := n.NewPacket()
	if q != p {
		t.Fatal("free list did not return the freed packet")
	}

	if len(q.Seg.Sack) != 0 || cap(q.Seg.Sack) != sackCap {
		t.Errorf("Sack after recycle: len=%d cap=%d, want len=0 cap=%d",
			len(q.Seg.Sack), cap(q.Seg.Sack), sackCap)
	}
	// With the Sack storage set aside, everything else must be zero.
	q.Seg.Sack = nil
	if !reflect.DeepEqual(*q, Packet{}) {
		t.Errorf("recycled packet retains state: %+v", *q)
	}
}

func TestFreePacketDoubleFreePanics(t *testing.T) {
	n := New(sim.NewEngine(1))
	p := n.NewPacket()
	n.FreePacket(p)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("double free did not panic")
		}
		if !strings.Contains(r.(string), "double free") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	n.FreePacket(p)
}

// TestPacketPoolLIFO pins deterministic recycle order.
func TestPacketPoolLIFO(t *testing.T) {
	n := New(sim.NewEngine(1))
	a, b := n.NewPacket(), n.NewPacket()
	n.FreePacket(a)
	n.FreePacket(b)
	if n.PoolSize() != 2 {
		t.Fatalf("PoolSize = %d, want 2", n.PoolSize())
	}
	if got := n.NewPacket(); got != b {
		t.Error("first NewPacket should reuse the last freed")
	}
	if got := n.NewPacket(); got != a {
		t.Error("second NewPacket should reuse the first freed")
	}
}

// TestSetDefaultPooling covers the equivalence-test escape hatch: with
// pooling off, FreePacket is a no-op and NewPacket always allocates.
func TestSetDefaultPooling(t *testing.T) {
	prev := SetDefaultPooling(false)
	defer SetDefaultPooling(prev)

	n := New(sim.NewEngine(1))
	p := n.NewPacket()
	p.Size = 99
	n.FreePacket(p)
	if n.PoolSize() != 0 {
		t.Fatal("unpooled network parked a packet")
	}
	if p.Size != 99 {
		t.Error("unpooled FreePacket must not reset the packet")
	}
	if q := n.NewPacket(); q == p {
		t.Error("unpooled NewPacket reused a packet")
	}
	// Double free is tolerated when pooling is off (FreePacket is a no-op).
	n.FreePacket(p)
}

// TestClonePacketDetachesSack proves a fault-path clone never shares pooled
// Sack storage with its original.
func TestClonePacketDetachesSack(t *testing.T) {
	n := New(sim.NewEngine(1))
	p := n.NewPacket()
	p.Seg.Sack = append(p.Seg.Sack, SackBlock{Start: 1, End: 2})
	c := clonePacket(p)
	if !reflect.DeepEqual(c.Seg.Sack, p.Seg.Sack) {
		t.Fatal("clone lost the Sack contents")
	}
	n.FreePacket(p) // rewrites p's Sack storage
	reused := n.NewPacket()
	reused.Seg.Sack = append(reused.Seg.Sack, SackBlock{Start: 9, End: 10})
	if c.Seg.Sack[0] != (SackBlock{Start: 1, End: 2}) {
		t.Error("clone's Sack aliased pool storage and was rewritten")
	}
	if c.free {
		t.Error("clone inherited the free marker")
	}
}
