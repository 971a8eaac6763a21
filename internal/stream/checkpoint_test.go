package stream

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"trafficreshape/internal/mac"
	"trafficreshape/internal/trace"
	"trafficreshape/internal/wire"
)

// TestCheckpointRestoreEquivalence is the tentpole contract: a run
// killed after a checkpoint and resumed from it — into a fresh
// engine, at any shard count — reports byte-identically to the
// uninterrupted run. The checkpoint does not depend on the shard
// count that wrote it: every image equals the inline one, and the
// inline and 4-shard images also resume at each other's count.
// Exercised with the self-audit on so the checkpoint carries
// mid-stream classifier state, leak streaks and open windows, not
// just counters.
func TestCheckpointRestoreEquivalence(t *testing.T) {
	cls := auditClassifier(t, 5*time.Second)
	in := capture(t, 30*time.Second, 42)
	cut := len(in.Packets) / 2
	cfg := func(shards int) Config {
		return Config{Seed: 11, Shards: shards, Classifier: cls}
	}

	full := New(cfg(4))
	ingestTrace(full, in)
	want := renderReport(t, full.Drain())

	restoreAt := map[int][]int{0: {0, 4}, 1: {1}, 4: {4, 0}, 8: {8}}
	var inline []byte
	for _, shards := range []int{0, 1, 4, 8} {
		a := New(cfg(shards))
		for _, p := range in.Packets[:cut] {
			a.Ingest(p)
		}
		var ck bytes.Buffer
		if err := a.Checkpoint(&ck); err != nil {
			t.Fatalf("shards=%d checkpoint: %v", shards, err)
		}
		a.Drain() // the "crashed" daemon's goroutines; its report is discarded
		if shards == 0 {
			inline = ck.Bytes()
		} else if !bytes.Equal(ck.Bytes(), inline) {
			t.Errorf("shards=%d checkpoint (%d bytes) differs from the inline one (%d bytes)", shards, ck.Len(), len(inline))
		}

		for _, to := range restoreAt[shards] {
			b := New(cfg(to))
			if err := b.Restore(bytes.NewReader(ck.Bytes())); err != nil {
				t.Fatalf("shards=%d image restore at %d: %v", shards, to, err)
			}
			if got := b.Offered(); got != int64(cut) {
				t.Fatalf("shards=%d image at %d: restored offset %d, want %d", shards, to, got, cut)
			}
			for _, p := range in.Packets[cut:] {
				b.Ingest(p)
			}
			if got := renderReport(t, b.Drain()); !bytes.Equal(got, want) {
				t.Errorf("shards=%d image resumed at %d diverges from uninterrupted run:\n--- full ---\n%s--- resumed ---\n%s",
					shards, to, want, got)
			}
		}
	}
}

// TestCheckpointRoundTrip: decode(encode(decode(x))) is stable and
// encoding is deterministic — two checkpoints of the same engine
// state are byte-identical.
func TestCheckpointRoundTrip(t *testing.T) {
	in := capture(t, 10*time.Second, 7)
	e := New(Config{Seed: 9, Shards: 2})
	ingestTrace(e, in)
	var a, b bytes.Buffer
	if err := e.Checkpoint(&a); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if err := e.Checkpoint(&b); err != nil {
		t.Fatalf("second checkpoint: %v", err)
	}
	e.Drain()
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("two checkpoints of the same state differ (%d vs %d bytes)", a.Len(), b.Len())
	}
	d, err := decodeCheckpoint(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(d.flows) == 0 || d.offered == 0 {
		t.Fatalf("decoded checkpoint is empty: flows=%d offered=%d", len(d.flows), d.offered)
	}
	if again := encodeCheckpoint(nil, d); !bytes.Equal(again, a.Bytes()) {
		t.Fatalf("decode→encode is not an involution (%d vs %d bytes)", len(again), a.Len())
	}
}

// TestCheckpointReusedBufferMatchesFresh: an engine encodes each
// checkpoint over its previous image. A smaller image after a larger
// one must equal the same state checkpointed by a twin engine that
// encodes into a fresh buffer, byte for byte: no tail of the larger
// image may survive.
func TestCheckpointReusedBufferMatchesFresh(t *testing.T) {
	pkt := func(i int, at time.Duration) trace.Packet {
		return trace.Packet{Time: at, Size: int32(60 + (i*131)%1400), Dir: trace.Direction(i % 2), MAC: flowMAC(i % 4)}
	}
	for _, shards := range []int{0, 2} {
		cfg := Config{Seed: 3, Shards: shards, RingCap: 64, Period: 32}
		a, b := New(cfg), New(cfg)
		var large bytes.Buffer
		for i := 0; i < 600; i++ {
			a.Ingest(pkt(i, time.Duration(i)*5*time.Millisecond))
			b.Ingest(pkt(i, time.Duration(i)*5*time.Millisecond))
		}
		if err := a.Checkpoint(&large); err != nil {
			t.Fatalf("shards=%d: first checkpoint: %v", shards, err)
		}
		// One packet per flow past the window: every ring is cut to a
		// single packet, so the next image is smaller.
		for i := 0; i < 4; i++ {
			a.Ingest(pkt(i, time.Minute))
			b.Ingest(pkt(i, time.Minute))
		}
		var small, fresh bytes.Buffer
		if err := a.Checkpoint(&small); err != nil {
			t.Fatalf("shards=%d: second checkpoint: %v", shards, err)
		}
		if err := b.Checkpoint(&fresh); err != nil {
			t.Fatalf("shards=%d: twin checkpoint: %v", shards, err)
		}
		a.Drain()
		b.Drain()
		if small.Len() >= large.Len() {
			t.Fatalf("shards=%d: second image %d bytes, want fewer than the first's %d", shards, small.Len(), large.Len())
		}
		if !bytes.Equal(small.Bytes(), fresh.Bytes()) {
			t.Errorf("shards=%d: image over a reused buffer (%d bytes) differs from a fresh one (%d bytes)",
				shards, small.Len(), fresh.Len())
		}
	}
}

// TestCheckpointImageAllocatedOnce: a second checkpoint of an
// unchanged inline engine allocates only its snapshot. The image is
// encoded over the first one's buffer, not allocated again.
func TestCheckpointImageAllocatedOnce(t *testing.T) {
	e := New(Config{Seed: 3, RingCap: 64, Period: 32})
	for i := 0; i < 600; i++ {
		e.Ingest(trace.Packet{Time: time.Duration(i) * 5 * time.Millisecond, Size: int32(60 + (i*131)%1400), MAC: flowMAC(i % 4)})
	}
	if err := e.Checkpoint(io.Discard); err != nil {
		t.Fatal(err)
	}
	snap := testing.AllocsPerRun(10, func() { e.inline.snapshot() })
	ckpt := testing.AllocsPerRun(10, func() {
		if err := e.Checkpoint(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	if ckpt != snap {
		t.Fatalf("checkpoint allocates %.0f times, its snapshot %.0f; want no allocation beyond the snapshot", ckpt, snap)
	}
}

// TestCheckpointDetectsCorruption: any single flipped byte fails the
// CRC footer; a truncated file fails cleanly too.
func TestCheckpointDetectsCorruption(t *testing.T) {
	in := capture(t, 5*time.Second, 3)
	e := New(Config{Seed: 1})
	ingestTrace(e, in)
	var ck bytes.Buffer
	if err := e.Checkpoint(&ck); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	e.Drain()
	raw := ck.Bytes()
	for _, pos := range []int{5, len(raw) / 2, len(raw) - 5} {
		mut := append([]byte(nil), raw...)
		mut[pos] ^= 0x40
		fresh := New(Config{Seed: 1})
		err := fresh.Restore(bytes.NewReader(mut))
		fresh.Drain()
		if !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("flip at %d: got %v, want ErrBadCheckpoint", pos, err)
		}
	}
	fresh := New(Config{Seed: 1})
	err := fresh.Restore(bytes.NewReader(raw[:len(raw)/3]))
	fresh.Drain()
	if !errors.Is(err, ErrBadCheckpoint) {
		t.Errorf("truncated file: got %v, want ErrBadCheckpoint", err)
	}
}

// TestCheckpointFlowCountBound: the flow count is bounded by
// minFlowRecord bytes per flow. Flows with empty scheduler state and
// rings encode in exactly that width and must decode, one flow fewer
// byte must not, and a count beyond the records present is refused
// before anything is allocated for it.
func TestCheckpointFlowCountBound(t *testing.T) {
	d := &ckptData{ringCap: 4, interfaces: 1, period: 8}
	for i := 0; i < 3; i++ {
		d.flows = append(d.flows, flowSnap{flowVals: flowVals{addr: flowMAC(i), ifaces: 1}, rng: [4]uint64{1}})
	}
	empty := encodeCheckpoint(nil, &ckptData{ringCap: 4, interfaces: 1, period: 8})
	full := encodeCheckpoint(nil, d)
	if got, want := len(full)-len(empty), 3*minFlowRecord; got != want {
		t.Fatalf("3 minimal flows encode in %d bytes, want 3 × minFlowRecord = %d", got, want)
	}
	if _, err := decodeCheckpoint(bytes.NewReader(full)); err != nil {
		t.Fatalf("minimal flows refused: %v", err)
	}
	// Claim a fourth flow: the CRC is recomputed, so only the count
	// bound can refuse it.
	const countOff = 8 + 8 + 4*4 + 8 + 6*8 + 1
	forged := append([]byte(nil), full[:len(full)-4]...)
	forged[countOff] = 4
	forged = wire.AppendCRC(forged, 0)
	if _, err := decodeCheckpoint(bytes.NewReader(forged)); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("forged flow count: err = %v, want ErrBadCheckpoint", err)
	}
}

// ringCheckpoint encodes a one-flow checkpoint whose ring holds one
// packet in direction dir.
func ringCheckpoint(dir trace.Direction) []byte {
	return encodeCheckpoint(nil, &ckptData{ringCap: 4, interfaces: 1, period: 8, flows: []flowSnap{{
		flowVals: flowVals{addr: flowMAC(0), ifaces: 1}, rng: [4]uint64{1},
		ring:     []trace.Packet{{Time: time.Second, Size: 100, Dir: dir}},
		ifassign: []uint8{0},
	}}})
}

// TestCheckpointRefusesBadDirection: a ring packet whose direction
// byte is neither Downlink nor Uplink is refused with
// ErrBadCheckpoint, though the CRC matches; both real directions
// decode.
func TestCheckpointRefusesBadDirection(t *testing.T) {
	for _, dir := range []trace.Direction{trace.Downlink, trace.Uplink, 2, 255} {
		_, err := decodeCheckpoint(bytes.NewReader(ringCheckpoint(dir)))
		if dir.Valid() {
			if err != nil {
				t.Errorf("direction %d refused: %v", dir, err)
			}
		} else if !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("direction byte %d: err = %v, want ErrBadCheckpoint", dir, err)
		}
	}
}

// TestCheckpointConfigMismatch: a checkpoint only restores into an
// engine built with the identical defense configuration.
func TestCheckpointConfigMismatch(t *testing.T) {
	in := capture(t, 5*time.Second, 3)
	e := New(Config{Seed: 1})
	ingestTrace(e, in)
	var ck bytes.Buffer
	if err := e.Checkpoint(&ck); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	e.Drain()
	for _, wrong := range []Config{
		{Seed: 2},
		{Seed: 1, W: 7 * time.Second},
		{Seed: 1, Interfaces: 5},
		{Seed: 1, Period: 123},
	} {
		fresh := New(wrong)
		err := fresh.Restore(bytes.NewReader(ck.Bytes()))
		fresh.Drain()
		if err == nil || !strings.Contains(err.Error(), "different configuration") {
			t.Errorf("config %+v: got %v, want configuration mismatch", wrong, err)
		}
	}
	// Restore into a used engine is refused.
	used := New(Config{Seed: 1})
	used.Ingest(trace.Packet{MAC: flowMAC(0), Size: 100})
	if err := used.Restore(bytes.NewReader(ck.Bytes())); err == nil {
		t.Error("restore into a used engine succeeded")
	}
	used.Drain()
}

// TestDrainIdempotent: Drain may be called repeatedly — signal
// handlers and deferred cleanup race to it — and always returns the
// same report.
func TestDrainIdempotent(t *testing.T) {
	for _, shards := range []int{0, 4} {
		in := capture(t, 5*time.Second, 8)
		e := New(Config{Seed: 2, Shards: shards})
		ingestTrace(e, in)
		r1 := e.Drain()
		r2 := e.Drain()
		if r1 != r2 {
			t.Errorf("shards=%d: second Drain returned a different Report", shards)
		}
		if !bytes.Equal(renderReport(t, r1), renderReport(t, r2)) {
			t.Errorf("shards=%d: drained reports differ", shards)
		}
	}
}

// TestIngestAfterDrainPanics: a packet offered after Drain panics at
// once, inline and sharded, instead of mutating flows behind the final
// report or blocking on a stopped shard's queue; the report stays
// what Drain returned.
func TestIngestAfterDrainPanics(t *testing.T) {
	for _, shards := range []int{0, 2} {
		in := capture(t, 5*time.Second, 8)
		e := New(Config{Seed: 2, Shards: shards})
		ingestTrace(e, in)
		r := e.Drain()
		want := renderReport(t, r)
		func() {
			defer func() {
				if msg := recover(); msg != "stream: Ingest after Drain" {
					t.Errorf("shards=%d: Ingest after Drain recovered %v, want the after-Drain panic", shards, msg)
				}
			}()
			e.Ingest(in.Packets[0])
		}()
		if e.Drain() != r || !bytes.Equal(renderReport(t, r), want) {
			t.Errorf("shards=%d: Ingest after Drain changed the report", shards)
		}
	}
}

// TestShardIndexNibbleCollisions: flows whose addresses collide in
// a[5]&0xf, interleaved, must route stably (same shard on every call)
// and correctly (the full-hash shard), with no cross-talk between the
// colliding flows.
func TestShardIndexNibbleCollisions(t *testing.T) {
	e := New(Config{Seed: 4, Shards: 4})
	defer e.Drain()
	// Eight addresses, all sharing low nibble 0x3, differing elsewhere.
	addrs := make([]mac.Address, 8)
	for i := range addrs {
		addrs[i] = mac.Address{0x02, 0xaa, byte(i), 0x00, byte(i * 17), byte(i<<4 | 0x3)}
	}
	want := make([]int, len(addrs))
	for i, a := range addrs {
		want[i] = int(flowHash(a) % uint64(len(e.shards)))
	}
	// Adversarial interleave: no two consecutive lookups share a flow.
	for round := 0; round < 100; round++ {
		for i, a := range addrs {
			if got := e.shardIndex(a); got != want[i] {
				t.Fatalf("round %d: shardIndex(%s) = %d, want %d", round, a, got, want[i])
			}
		}
	}
}

// TestShardIndexCollisionRouting drives the colliding flows through
// the full ingest path and checks no packet lands on the wrong flow.
func TestShardIndexCollisionRouting(t *testing.T) {
	a := mac.Address{0x02, 0x00, 0x00, 0x00, 0x00, 0x13}
	b := mac.Address{0x02, 0x00, 0x00, 0x00, 0x00, 0x23} // same low nibble
	e := New(Config{Seed: 4, Shards: 4})
	const perFlow = 500
	for i := 0; i < perFlow; i++ {
		ts := time.Duration(i) * time.Millisecond
		e.Ingest(trace.Packet{Time: ts, Size: int32(100 + i%200), MAC: a})
		e.Ingest(trace.Packet{Time: ts, Size: int32(300 + i%100), MAC: b})
	}
	rep := e.Drain()
	if len(rep.Flows) != 2 {
		t.Fatalf("got %d flows, want 2", len(rep.Flows))
	}
	for _, f := range rep.Flows {
		if f.Packets != perFlow {
			t.Errorf("flow %s has %d packets, want %d", f.MAC, f.Packets, perFlow)
		}
	}
}
