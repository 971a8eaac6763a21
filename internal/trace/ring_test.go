package trace

import (
	"testing"
	"time"
)

func ringPacket(i int) Packet {
	return Packet{Time: time.Duration(i) * time.Millisecond, Size: int32(100 + i)}
}

func TestRingBasics(t *testing.T) {
	r := NewRing(4)
	if cap(r.buf) != 4 || r.Len() != 0 {
		t.Fatalf("fresh ring: cap=%d len=%d", cap(r.buf), r.Len())
	}
	for i := 0; i < 3; i++ {
		if r.Push(ringPacket(i)) {
			t.Fatalf("push %d evicted below capacity", i)
		}
	}
	if r.Len() != 3 {
		t.Fatalf("len=%d after 3 pushes", r.Len())
	}
	for i, got := range r.AppendTo(nil) {
		if got != ringPacket(i) {
			t.Fatalf("packet %d = %v, want %v", i, got, ringPacket(i))
		}
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		evicted := r.Push(ringPacket(i))
		if want := i >= 4; evicted != want {
			t.Fatalf("push %d: evicted=%v, want %v", i, evicted, want)
		}
	}
	if r.Len() != 4 {
		t.Fatalf("len=%d after 10 pushes into cap 4", r.Len())
	}
	// Oldest surviving packet is #6.
	for i, got := range r.AppendTo(nil) {
		if got != ringPacket(6+i) {
			t.Fatalf("packet %d = %v, want packet %d", i, got, 6+i)
		}
	}
}

func TestRingAppendTo(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 5; i++ {
		r.Push(ringPacket(i))
	}
	scratch := make([]Packet, 0, 3)
	out := r.AppendTo(scratch)
	if len(out) != 3 {
		t.Fatalf("AppendTo returned %d packets, want 3", len(out))
	}
	for i, p := range out {
		if p != ringPacket(2+i) {
			t.Fatalf("AppendTo[%d] = %v, want packet %d", i, p, 2+i)
		}
	}
	if &out[0] != &scratch[:1][0] {
		t.Fatal("AppendTo did not reuse the scratch backing array")
	}
}

func TestRingReset(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 5; i++ {
		r.Push(ringPacket(i))
	}
	r.Reset()
	if r.Len() != 0 {
		t.Fatalf("after reset: len=%d", r.Len())
	}
	r.Push(ringPacket(42))
	if got := r.AppendTo(nil); len(got) != 1 || got[0] != ringPacket(42) {
		t.Fatal("ring unusable after reset")
	}
}

func TestRingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-capacity: no panic")
		}
	}()
	NewRing(0)
}

func TestRingSteadyStateAllocFree(t *testing.T) {
	r := NewRing(64)
	scratch := make([]Packet, 0, 64)
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		for j := 0; j < 128; j++ {
			r.Push(ringPacket(i))
			i++
		}
		scratch = r.AppendTo(scratch[:0])
		r.Reset()
	})
	if allocs != 0 {
		t.Fatalf("ring push/drain cycle allocates %.1f, want 0", allocs)
	}
}
