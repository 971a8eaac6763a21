package stream

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trafficreshape/internal/mac"
	"trafficreshape/internal/trace"
)

// The fault plans below are logical rather than timed: a wedge blocks
// until released, a panic fires on an exact per-flow packet count. A
// plan replayed twice injects the same faults at the same points in
// the packet sequence regardless of goroutine scheduling, which is
// what lets these tests pin exact shed/stall/lost/restart counters
// and byte-identical reports.

// wedge blocks callers until released.
type wedge struct {
	ch   chan struct{}
	once sync.Once
}

func newWedge() *wedge { return &wedge{ch: make(chan struct{})} }

// block parks the caller until release. After release it returns
// immediately, so a released wedge is a no-op hook.
func (w *wedge) block() { <-w.ch }

// release unblocks every past and future block call. Idempotent.
func (w *wedge) release() { w.once.Do(func() { close(w.ch) }) }

// receiveWedge wedges the given shard before its very first dequeue:
// the shard never picks work up until release, so the bounded queue in
// front of it fills deterministically.
func receiveWedge(w *wedge, shard int) hooks {
	return hooks{beforeReceive: func(s int) {
		if s == shard {
			w.block()
		}
	}}
}

// ingestWedge wedges the shard owning addr when it is about to ingest
// that flow's n-th packet (1-based): the shard goes quiet mid-batch
// while marked busy, the shape the watchdog reaps.
func ingestWedge(w *wedge, addr mac.Address, n int64) hooks {
	var count flowCounter
	return hooks{beforeIngest: func(s int, p trace.Packet) {
		if p.MAC == addr && count.next(p.MAC) == n {
			w.block()
		}
	}}
}

// panicOn panics when the flow owning addr reaches its n-th packet
// (1-based) — a poisoned-flow fault the supervisor must contain to one
// shard restart. The trigger fires exactly once.
func panicOn(addr mac.Address, n int64) hooks {
	var count flowCounter
	var fired atomic.Bool
	return hooks{beforeIngest: func(s int, p trace.Packet) {
		if p.MAC == addr && count.next(p.MAC) == n && fired.CompareAndSwap(false, true) {
			panic(fmt.Sprintf("chaos: injected panic on %s packet %d", addr, n))
		}
	}}
}

// delayEvery sleeps d before every n-th ingested packet on any shard —
// a timing-jitter storm that perturbs queue occupancy without changing
// any logical decision.
func delayEvery(n int64, d time.Duration) hooks {
	var seq atomic.Int64
	return hooks{beforeIngest: func(int, trace.Packet) {
		if seq.Add(1)%n == 0 {
			time.Sleep(d)
		}
	}}
}

// flowCounter counts packets per flow across shard goroutines. A flow
// is owned by one shard, so per-key accesses are sequential; the map
// itself is shared across shards and needs the lock.
type flowCounter struct {
	mu sync.Mutex
	m  map[mac.Address]int64
}

func (c *flowCounter) next(a mac.Address) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = make(map[mac.Address]int64)
	}
	c.m[a]++
	return c.m[a]
}

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
	const B, Q = batchSize, 2
	const K = 12*B + 4
	addr := flowMAC(0)
	run := func() *Report {
		w := newWedge()
		e := New(Config{
			Seed: 5, Shards: 1, QueueDepth: Q,
			Policy: PolicyFailClosed,
			chaos:  receiveWedge(w, 0),
		})
		for _, p := range singleFlow(addr, K) {
			e.Ingest(p)
		}
		w.release()
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
	const B, Q = batchSize, 2
	const K = 12*B + 4
	addr := flowMAC(0)
	w := newWedge()
	e := New(Config{
		Seed: 5, Shards: 1, QueueDepth: Q,
		Policy: PolicyFailOpen, DegradeAudit: true,
		chaos: receiveWedge(w, 0),
	})
	for _, p := range singleFlow(addr, K) {
		e.Ingest(p)
	}
	w.release()
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
	const B = batchSize
	const K, poison = 10 * B, 5*B + B/2
	addr := flowMAC(0)
	run := func() *Report {
		e := New(Config{
			Seed: 5, Shards: 1,
			chaos: panicOn(addr, poison),
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
	// The panic fires in the middle of the sixth batch; with no prior
	// checkpoint the rollback loses everything consumed so far: the
	// five completed batches plus the poisoned one.
	if rep.Lost != 6*B {
		t.Errorf("lost = %d, want %d", rep.Lost, 6*B)
	}
	if rep.Packets != K-6*B {
		t.Errorf("packets = %d, want %d", rep.Packets, K-6*B)
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
	const B = batchSize
	const K, C, poison = 10 * B, 4 * B, 5*B + B/2
	addr := flowMAC(0)
	e := New(Config{
		Seed: 5, Shards: 1,
		chaos: panicOn(addr, poison),
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
	// Lost: batches 5 and 6 — the completed post-checkpoint batch
	// and the poisoned one. The four checkpointed batches survive the
	// rollback.
	if rep.Lost != 2*B {
		t.Errorf("lost = %d, want %d", rep.Lost, 2*B)
	}
	if rep.Packets != 8*B {
		t.Errorf("packets = %d, want %d (%d checkpointed + %d after the poisoned batch)", rep.Packets, 8*B, C, K-6*B)
	}
	if len(rep.Flows) != 1 || rep.Flows[0].Packets != 8*B {
		t.Errorf("flow survived with %+v, want one flow with %d packets", rep.Flows, 8*B)
	}
	assertConservation(t, rep)
}

// TestChaosWatchdogReapsWedgedShard wedges the shard mid-packet (busy,
// heartbeat frozen) with the producer eventually blocked on the full
// queue; the watchdog must reap the shard, unblock the producer, and
// account every packet stranded in the dead shard's queue as lost.
func TestChaosWatchdogReapsWedgedShard(t *testing.T) {
	const B, Q = batchSize, 2
	const K, stuck = 10 * B, 2*B + B/2
	addr := flowMAC(0)
	w := newWedge()
	e := New(Config{
		Seed: 5, Shards: 1, QueueDepth: Q,
		Watchdog: 50 * time.Millisecond,
		chaos:    ingestWedge(w, addr, stuck),
	})
	for _, p := range singleFlow(addr, K) {
		e.Ingest(p)
	}
	w.release()
	rep := e.Drain()
	if rep.Reaps != 1 {
		t.Fatalf("reaps = %d, want 1 (report: %+v)", rep.Reaps, rep)
	}
	// The wedge freezes the shard in the middle of batch 3. The
	// producer fills the queue with batches 4 and 5, blocks on batch
	// 6, and the reaper's drain lets that send complete into the dead
	// queue: six batches are charged to the zombie. Batches 7..10
	// reach the replacement shard.
	if rep.Lost != 6*B {
		t.Errorf("lost = %d, want %d", rep.Lost, 6*B)
	}
	if rep.Packets != 4*B {
		t.Errorf("packets = %d, want %d", rep.Packets, 4*B)
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
		Seed: 5, Shards: 4, QueueDepth: 1,
		Policy: PolicyFailClosed, DegradeAudit: true,
		chaos: delayEvery(63, 200*time.Microsecond),
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
