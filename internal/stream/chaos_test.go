package stream

import (
	"bytes"
	"testing"
	"time"

	"trafficreshape/internal/mac"
	"trafficreshape/internal/stream/streamchaos"
	"trafficreshape/internal/trace"
)

// singleFlow builds n evenly spaced packets for one flow — the
// workload whose batch boundaries are exactly predictable, which is
// what lets the chaos tests pin fault counters to the packet.
func singleFlow(addr mac.Address, n int) []trace.Packet {
	ps := make([]trace.Packet, n)
	for i := range ps {
		ps[i] = trace.Packet{
			Time: time.Duration(i) * time.Millisecond,
			Size: int32(100 + i%400),
			Dir:  trace.Downlink,
			MAC:  addr,
		}
	}
	return ps
}

func assertConservation(t *testing.T, r *Report) {
	t.Helper()
	if got := r.Packets + r.Shed + r.Stalled + r.Lost; got != r.Offered {
		t.Errorf("conservation violated: packets=%d shed=%d stalled=%d lost=%d sums to %d, offered=%d",
			r.Packets, r.Shed, r.Stalled, r.Lost, got, r.Offered)
	}
}

// TestChaosFailClosedShedsDeterministically wedges the only shard
// before its first dequeue, so the queue-full geometry is exact: the
// producer lands Q batches, keeps one partial batch pending, and
// every further packet is dropped. stalled = K - Q*B - (B-1),
// identical on every run.
func TestChaosFailClosedShedsDeterministically(t *testing.T) {
	const K, B, Q = 100, 8, 2
	addr := flowMAC(0)
	run := func() *Report {
		w := streamchaos.NewWedge()
		e := New(Config{
			Seed: 5, Shards: 1, BatchSize: B, QueueDepth: Q,
			Policy: PolicyFailClosed,
			Chaos:  streamchaos.ReceiveWedge(w, 0),
		})
		for _, p := range singleFlow(addr, K) {
			e.Ingest(p)
		}
		w.Release()
		return e.Drain()
	}
	rep := run()
	wantStalled := int64(K - Q*B - (B - 1))
	if rep.Stalled != wantStalled {
		t.Errorf("stalled = %d, want %d", rep.Stalled, wantStalled)
	}
	if rep.Packets != int64(K)-wantStalled {
		t.Errorf("packets = %d, want %d", rep.Packets, int64(K)-wantStalled)
	}
	if rep.Shed != 0 || rep.Lost != 0 || rep.Restarts != 0 || rep.Degraded {
		t.Errorf("unexpected fault counters: %+v", rep)
	}
	if len(rep.Shards) != 1 || rep.Shards[0].Stalled != wantStalled {
		t.Errorf("per-shard stats = %+v, want shard 0 stalled=%d", rep.Shards, wantStalled)
	}
	assertConservation(t, rep)
	if a, b := renderReport(t, rep), renderReport(t, run()); !bytes.Equal(a, b) {
		t.Errorf("two identical chaos runs diverge:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
}

// TestChaosFailOpenCountsLeaksAndDegrades: same geometry under
// fail-open — the dropped packets become counted unshaped passes —
// and DegradeAudit latches the degraded flag at the first full-queue
// event.
func TestChaosFailOpenCountsLeaksAndDegrades(t *testing.T) {
	const K, B, Q = 100, 8, 2
	addr := flowMAC(0)
	w := streamchaos.NewWedge()
	e := New(Config{
		Seed: 5, Shards: 1, BatchSize: B, QueueDepth: Q,
		Policy: PolicyFailOpen, DegradeAudit: true,
		Chaos: streamchaos.ReceiveWedge(w, 0),
	})
	for _, p := range singleFlow(addr, K) {
		e.Ingest(p)
	}
	w.Release()
	rep := e.Drain()
	wantShed := int64(K - Q*B - (B - 1))
	if rep.Shed != wantShed {
		t.Errorf("shed = %d, want %d", rep.Shed, wantShed)
	}
	if rep.Stalled != 0 {
		t.Errorf("stalled = %d, want 0 under fail-open", rep.Stalled)
	}
	if !rep.Degraded {
		t.Error("degraded flag not latched despite queue-full events with DegradeAudit on")
	}
	assertConservation(t, rep)
}

// TestChaosPanicRestartDeterministic: a poisoned flow panics its
// shard; the supervisor rolls the shard back (to empty — no
// checkpoint was taken), counts the rolled-back packets lost, and the
// engine keeps running. Two runs are byte-identical.
func TestChaosPanicRestartDeterministic(t *testing.T) {
	const K, B = 100, 10
	addr := flowMAC(0)
	run := func() *Report {
		e := New(Config{
			Seed: 5, Shards: 1, BatchSize: B,
			Chaos: streamchaos.PanicOn(addr, 55),
		})
		for _, p := range singleFlow(addr, K) {
			e.Ingest(p)
		}
		return e.Drain()
	}
	rep := run()
	if rep.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", rep.Restarts)
	}
	// The panic fires on packet 55, inside batch 51..60; with no prior
	// checkpoint the rollback loses everything consumed so far: the
	// five completed batches plus the poisoned one.
	if rep.Lost != 60 {
		t.Errorf("lost = %d, want 60", rep.Lost)
	}
	if rep.Packets != int64(K)-60 {
		t.Errorf("packets = %d, want %d", rep.Packets, K-60)
	}
	assertConservation(t, rep)
	if a, b := renderReport(t, rep), renderReport(t, run()); !bytes.Equal(a, b) {
		t.Errorf("two identical panic-chaos runs diverge:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
}

// TestChaosCheckpointThenPanicRestoresFlows: with a checkpoint taken
// mid-stream, a later panic rolls back only to the checkpoint — the
// flow survives with its pre-checkpoint history intact.
func TestChaosCheckpointThenPanicRestoresFlows(t *testing.T) {
	const K, B, C = 100, 10, 40
	addr := flowMAC(0)
	e := New(Config{
		Seed: 5, Shards: 1, BatchSize: B,
		Chaos: streamchaos.PanicOn(addr, 55),
	})
	packets := singleFlow(addr, K)
	for _, p := range packets[:C] {
		e.Ingest(p)
	}
	var ck bytes.Buffer
	if err := e.Checkpoint(&ck); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	for _, p := range packets[C:] {
		e.Ingest(p)
	}
	rep := e.Drain()
	if rep.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", rep.Restarts)
	}
	// Lost: packets 41..60 — the completed post-checkpoint batch and
	// the poisoned one. The checkpointed 40 survive the rollback.
	if rep.Lost != 20 {
		t.Errorf("lost = %d, want 20", rep.Lost)
	}
	if rep.Packets != 80 {
		t.Errorf("packets = %d, want 80 (40 checkpointed + 40 after the poisoned batch)", rep.Packets)
	}
	if len(rep.Flows) != 1 || rep.Flows[0].Packets != 80 {
		t.Errorf("flow survived with %+v, want one flow with 80 packets", rep.Flows)
	}
	assertConservation(t, rep)
}

// TestChaosWatchdogReapsWedgedShard wedges the shard mid-packet (busy,
// heartbeat frozen) with the producer eventually blocked on the full
// queue; the watchdog must reap the shard, unblock the producer, and
// account every packet stranded in the dead shard's queue as lost.
func TestChaosWatchdogReapsWedgedShard(t *testing.T) {
	const K, B, Q = 100, 10, 2
	addr := flowMAC(0)
	w := streamchaos.NewWedge()
	e := New(Config{
		Seed: 5, Shards: 1, BatchSize: B, QueueDepth: Q,
		Watchdog: 50 * time.Millisecond,
		Chaos:    streamchaos.IngestWedge(w, addr, 25),
	})
	for _, p := range singleFlow(addr, K) {
		e.Ingest(p)
	}
	w.Release()
	rep := e.Drain()
	if rep.Reaps != 1 {
		t.Fatalf("reaps = %d, want 1 (report: %+v)", rep.Reaps, rep)
	}
	// The wedge freezes the shard on packet 25 (inside batch 3). The
	// producer fills the queue with batches 4 and 5, blocks on batch
	// 6, and the reaper's drain lets that send complete into the dead
	// queue: six batches — 60 packets — are charged to the zombie.
	// Batches 7..10 reach the replacement shard.
	if rep.Lost != 60 {
		t.Errorf("lost = %d, want 60", rep.Lost)
	}
	if rep.Packets != 40 {
		t.Errorf("packets = %d, want 40", rep.Packets)
	}
	if rep.Restarts != 0 {
		t.Errorf("restarts = %d, want 0 (a reap is not a panic restart)", rep.Restarts)
	}
	assertConservation(t, rep)
}

// TestChaosDelayStormConservation is the property schedule the CI
// chaos-smoke job runs under -race: timing jitter across shards with
// a shedding policy. Counters depend on timing, so the only assertion
// is the conservation invariant and a well-formed report.
func TestChaosDelayStormConservation(t *testing.T) {
	in := capture(t, 10*time.Second, 77)
	e := New(Config{
		Seed: 5, Shards: 4, BatchSize: 16, QueueDepth: 1,
		Policy: PolicyFailClosed, DegradeAudit: true,
		Chaos: streamchaos.DelayEvery(63, 200*time.Microsecond),
	})
	ingestTrace(e, in)
	rep := e.Drain()
	assertConservation(t, rep)
	if rep.Offered != int64(len(in.Packets)) {
		t.Errorf("offered = %d, want %d", rep.Offered, len(in.Packets))
	}
	out := renderReport(t, rep)
	if !bytes.Contains(out, []byte("admission policy=fail-closed")) {
		t.Errorf("report missing admission line:\n%s", out)
	}
}
