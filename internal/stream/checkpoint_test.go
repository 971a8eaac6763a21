package stream

import (
	"bytes"
	"errors"
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
// uninterrupted run. Exercised with the self-audit on so the
// checkpoint carries mid-stream classifier state, leak streaks and
// open windows, not just counters.
func TestCheckpointRestoreEquivalence(t *testing.T) {
	cls := auditClassifier(t, 5*time.Second)
	in := capture(t, 30*time.Second, 42)
	cut := len(in.Packets) / 2
	cfg := func(shards int) Config {
		return Config{Seed: 11, Shards: shards, Classifier: cls, BatchSize: 64}
	}

	full := New(cfg(4))
	full.IngestTrace(in)
	want := renderReport(t, full.Drain())

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

		b := New(cfg(shards))
		if err := b.Restore(bytes.NewReader(ck.Bytes())); err != nil {
			t.Fatalf("shards=%d restore: %v", shards, err)
		}
		if got := b.Offered(); got != int64(cut) {
			t.Fatalf("shards=%d restored offset %d, want %d", shards, got, cut)
		}
		for _, p := range in.Packets[cut:] {
			b.Ingest(p)
		}
		if got := renderReport(t, b.Drain()); !bytes.Equal(got, want) {
			t.Errorf("shards=%d resumed report diverges from uninterrupted run:\n--- full ---\n%s--- resumed ---\n%s",
				shards, want, got)
		}
	}
}

// TestCheckpointRoundTrip: decode(encode(decode(x))) is stable and
// encoding is deterministic — two checkpoints of the same engine
// state are byte-identical.
func TestCheckpointRoundTrip(t *testing.T) {
	in := capture(t, 10*time.Second, 7)
	e := New(Config{Seed: 9, Shards: 2, BatchSize: 32})
	e.IngestTrace(in)
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
	var again bytes.Buffer
	if err := encodeCheckpoint(&again, d); err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(again.Bytes(), a.Bytes()) {
		t.Fatalf("decode→encode is not an involution (%d vs %d bytes)", again.Len(), a.Len())
	}
}

// TestCheckpointDetectsCorruption: any single flipped byte fails the
// CRC footer; a truncated file fails cleanly too.
func TestCheckpointDetectsCorruption(t *testing.T) {
	in := capture(t, 5*time.Second, 3)
	e := New(Config{Seed: 1})
	e.IngestTrace(in)
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
		d.flows = append(d.flows, flowSnap{addr: flowMAC(i), rng: [4]uint64{1}, ifaces: 1})
	}
	var empty, full bytes.Buffer
	if err := encodeCheckpoint(&empty, &ckptData{ringCap: 4, interfaces: 1, period: 8}); err != nil {
		t.Fatal(err)
	}
	if err := encodeCheckpoint(&full, d); err != nil {
		t.Fatal(err)
	}
	if got, want := full.Len()-empty.Len(), 3*minFlowRecord; got != want {
		t.Fatalf("3 minimal flows encode in %d bytes, want 3 × minFlowRecord = %d", got, want)
	}
	if _, err := decodeCheckpoint(bytes.NewReader(full.Bytes())); err != nil {
		t.Fatalf("minimal flows refused: %v", err)
	}
	// Claim a fourth flow: the CRC is recomputed, so only the count
	// bound can refuse it.
	const countOff = 8 + 8 + 4*4 + 8 + 6*8 + 1
	forged := append([]byte(nil), full.Bytes()[:full.Len()-4]...)
	forged[countOff] = 4
	forged = wire.AppendCRC(forged, 0)
	if _, err := decodeCheckpoint(bytes.NewReader(forged)); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("forged flow count: err = %v, want ErrBadCheckpoint", err)
	}
}

// TestCheckpointConfigMismatch: a checkpoint only restores into an
// engine built with the identical defense configuration.
func TestCheckpointConfigMismatch(t *testing.T) {
	in := capture(t, 5*time.Second, 3)
	e := New(Config{Seed: 1})
	e.IngestTrace(in)
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
		e.IngestTrace(in)
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

// TestShardIndexNibbleCollisions: flows whose addresses collide in
// a[5]&0xf, interleaved, must route stably (same shard on every call)
// and correctly (the full-hash shard), with no cross-talk between the
// colliding flows.
func TestShardIndexNibbleCollisions(t *testing.T) {
	e := New(Config{Seed: 4, Shards: 4, BatchSize: 8})
	defer e.Drain()
	// Eight addresses, all sharing low nibble 0x3, differing elsewhere.
	addrs := make([]mac.Address, 8)
	for i := range addrs {
		addrs[i] = mac.Address{0x02, 0xaa, byte(i), 0x00, byte(i * 17), byte(i<<4 | 0x3)}
	}
	want := make([]int, len(addrs))
	for i, a := range addrs {
		want[i] = int(flowHash(a) % uint64(e.nshards))
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
	e := New(Config{Seed: 4, Shards: 4, BatchSize: 4})
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
