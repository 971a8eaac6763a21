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
	if r.Cap() != 4 || r.Len() != 0 || r.Total() != 0 {
		t.Fatalf("fresh ring: cap=%d len=%d total=%d", r.Cap(), r.Len(), r.Total())
	}
	for i := 0; i < 3; i++ {
		if r.Push(ringPacket(i)) {
			t.Fatalf("push %d evicted below capacity", i)
		}
	}
	if r.Len() != 3 || r.Total() != 3 {
		t.Fatalf("len=%d total=%d after 3 pushes", r.Len(), r.Total())
	}
	for i := 0; i < 3; i++ {
		if got := r.At(i); got != ringPacket(i) {
			t.Fatalf("At(%d) = %v, want %v", i, got, ringPacket(i))
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
	if r.Len() != 4 || r.Total() != 10 {
		t.Fatalf("len=%d total=%d after 10 pushes into cap 4", r.Len(), r.Total())
	}
	// Oldest surviving packet is #6.
	for i := 0; i < 4; i++ {
		if got := r.At(i); got != ringPacket(6+i) {
			t.Fatalf("At(%d) = %v, want packet %d", i, got, 6+i)
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
	if r.Len() != 0 || r.Total() != 0 {
		t.Fatalf("after reset: len=%d total=%d", r.Len(), r.Total())
	}
	r.Push(ringPacket(42))
	if r.Len() != 1 || r.At(0) != ringPacket(42) {
		t.Fatal("ring unusable after reset")
	}
}

func TestRingPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"zero-capacity": func() { NewRing(0) },
		"bad-index":     func() { NewRing(2).At(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
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
