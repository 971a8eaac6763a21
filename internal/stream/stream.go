// Package stream is the online reshaping engine: the long-running
// counterpart of the batch grid evaluation. Packets arrive one at a
// time, are routed to a per-flow state machine (fixed-capacity ring
// window, adaptive scheduler, virtual-interface grant), and the
// defense reacts as the flow evolves — re-deriving the scheduler's
// size ranges every epoch, auditing its own reshaping through the
// eavesdropper's classifier, and escalating the interface count via
// the vMAC configuration protocol when a flow keeps leaking.
//
// Flows are partitioned over shard slots by a hash of their address.
// Config.Shards = N > 0 runs one goroutine per slot, fed in batches
// through a bounded queue. Shards = 0 is one slot, slot 0, run on the
// caller's goroutine: Ingest processes each packet at once, and a
// checkpoint, restore or drain is handled in place where a sharded
// slot would dequeue it. Either way the control plane (Checkpoint,
// Restore, Drain, the report) takes one path over the slots.
//
// Determinism is the load-bearing property. Every per-flow decision —
// scheduling, window boundaries, classification, escalation, nonce
// draws — is a pure function of that flow's packet sequence and the
// master seed: per-flow RNG streams come from stats.RNG.SplitAt keyed
// by a hash of the flow address, so they do not depend on flow
// arrival order or shard count. Replaying a captured trace therefore
// produces a byte-identical Report, and checkpoints taken at the same
// packet are byte-identical, at any shard count. The only shard-order-
// dependent values in the system are the virtual MAC address *bytes*
// (the AP's pool is a shared allocator), so addresses are deliberately
// excluded from digests and reports; grant counts, which depend only
// on per-flow requests and AP policy, are included.
//
// Overload and failure are explicit, accounted-for states rather than
// hangs or silent data loss. The shard handoff is a bounded queue
// with a configurable admission policy: backpressure (block, the
// default: nothing is shed), fail-closed (drop the packet — traffic
// stalls but nothing ever leaves unshaped) or fail-open (pass the
// packet through unshaped, counted as a leak). Before the first
// packet is shed the engine can degrade itself instead, switching off
// the self-audit classifier to shed load rather than traffic. Shard
// goroutines are supervised: a panic rolls the shard back to its last
// checkpoint and restarts it, a watchdog reaps a shard that wedges
// mid-packet, and every shed, stalled, lost and restarted unit is
// counted in the Report, which always renders — the daemon's
// conservation invariant is offered = processed + shed + stalled +
// lost, pinned by the chaos property tests. Engine.Checkpoint
// serializes all per-flow defense state through a versioned binary
// codec and Engine.Restore resumes it, such that a run killed
// mid-stream and resumed from its last checkpoint emits a report
// byte-identical to the uninterrupted run.
//
// The per-packet ingest path performs zero heap allocations in steady
// state — including window close and self-audit classification, which
// read the flow's ring in place with accumulators on the stack, and
// admission accounting, which recycles batch buffers — so the engine's
// footprint is bounded by the number of live flows, not by traffic
// volume.
package stream

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"trafficreshape/internal/attack"
	"trafficreshape/internal/features"
	"trafficreshape/internal/mac"
	"trafficreshape/internal/reshape"
	"trafficreshape/internal/stats"
	"trafficreshape/internal/trace"
	"trafficreshape/internal/vmac"
)

// ShedPolicy selects what a full shard queue does to the packet that
// found it full.
type ShedPolicy uint8

const (
	// PolicyBackpressure blocks the producer until the queue drains,
	// the default. Nothing is ever shed, so replay results
	// are independent of timing; the cost is that a wedged shard
	// stalls the producer (the watchdog, if enabled, un-wedges it).
	PolicyBackpressure ShedPolicy = iota
	// PolicyFailClosed drops the packet: the flow sees a stall, the
	// eavesdropper sees nothing unshaped. Counted per shard as
	// "stalled".
	PolicyFailClosed
	// PolicyFailOpen passes the packet through unshaped — it would be
	// transmitted under the physical address, visible to the
	// eavesdropper — and counts it per shard as "shed": an explicit,
	// audited privacy leak, the price of availability.
	PolicyFailOpen
)

// String names the policy as rendered in reports and parsed by
// ParseShedPolicy.
func (p ShedPolicy) String() string {
	switch p {
	case PolicyBackpressure:
		return "backpressure"
	case PolicyFailClosed:
		return "fail-closed"
	case PolicyFailOpen:
		return "fail-open"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// ParseShedPolicy inverts ShedPolicy.String, for CLI flags.
func ParseShedPolicy(s string) (ShedPolicy, error) {
	switch s {
	case "backpressure":
		return PolicyBackpressure, nil
	case "fail-closed":
		return PolicyFailClosed, nil
	case "fail-open":
		return PolicyFailOpen, nil
	}
	return 0, fmt.Errorf("stream: unknown shed policy %q (want backpressure, fail-closed or fail-open)", s)
}

// Config tunes the engine. Zero values select the defaults noted on
// each field.
type Config struct {
	// W is the eavesdropping window length (default 5s). Window
	// boundaries follow trace.AppendWindows semantics exactly: a
	// flow's first window opens at its first packet's timestamp, and
	// a packet at or past the boundary closes the current window.
	W time.Duration
	// RingCap bounds the packets held per flow window (default 4096,
	// at most MaxConfigValue). A window with more packets than RingCap
	// keeps only the most recent RingCap for classification;
	// qualification still counts every packet.
	RingCap int
	// Interfaces is the initial virtual interface count per flow
	// (default 3, the paper's recommendation).
	Interfaces int
	// Period is the adaptive scheduler's re-derivation period in
	// packets (default 500, at most MaxConfigValue).
	Period int
	// Seed drives every deterministic draw in the engine.
	Seed uint64
	// Shards selects the execution mode: 0 runs one shard slot inline,
	// on the caller's goroutine; N > 0 runs N shard goroutines with
	// batched hand-off. Reports and checkpoints are identical either
	// way.
	Shards int
	// QueueDepth bounds the batches queued per shard (default 2). A
	// batch is 1024 packets (batchSize). Admission control triggers
	// once a shard has QueueDepth batches queued and one more full
	// batch pending, so at most (QueueDepth+2) × 1024 packets are in
	// flight per shard: one batch filling, QueueDepth queued, one being
	// processed.
	QueueDepth int
	// Policy is the admission policy applied when a shard's queue is
	// full (default PolicyBackpressure).
	Policy ShedPolicy
	// DegradeAudit, when set, disables the self-audit classifier at
	// the first full-queue event under PolicyFailOpen or
	// PolicyFailClosed — shedding load before shedding packets. Under
	// PolicyBackpressure the producer blocks on a full queue and never
	// reaches the latch. The degradation is a one-way latch, reported
	// as degraded=true.
	DegradeAudit bool
	// Watchdog enables the shard watchdog: a shard that stays busy
	// without finishing a message for this long is considered wedged
	// and reaped — replaced by a fresh shard restored from its last
	// checkpoint, with the lost packets counted. 0 disables.
	Watchdog time.Duration
	// Classifier, when set, runs the self-audit: each qualifying
	// closed window is classified as the eavesdropper would see it,
	// and each per-interface sub-window is checked against that
	// prediction to detect leaks. One two-pass
	// features.ExtractGroups over the ring yields every vector, so
	// the audit costs in proportion to the window's packets, not to
	// packets × interfaces.
	Classifier *attack.Classifier
	// EscalateAfter is how many consecutive leaky windows trigger a
	// +1 interface escalation (default 2, at most MaxConfigValue).
	EscalateAfter int

	// chaos injects faults at the engine's scheduling points. Only
	// the package's chaos tests set it.
	chaos hooks
}

// MaxConfigValue bounds Config.RingCap, Config.Period and
// Config.EscalateAfter. A checkpoint records each in 32 bits and its
// decoder refuses a larger value, so an engine configured above it
// would write checkpoints it cannot restore.
const MaxConfigValue = 1 << 24

// batchSize is the packets per shard batch in sharded mode. Under
// backpressure the producer parks on the full queue and the shard
// wakes it once per batch it takes, so every batch pays one park and
// unpark. On 2 vCPUs, daemon-sharded ran 9% more packets per
// CPU-second at 1024 than at 256. 2048 read best, by less than its own
// interquartile range; 512 fell below that range. A larger batch also
// raises the in-flight bound (see Config.QueueDepth).
const batchSize = 1024

// hooks are the engine's fault-injection seam. Either func may be
// nil, which is all a production engine ever sees: one predictable
// branch per seam. Both run on shard goroutines and must be safe for
// concurrent calls from different shards (one shard calls them
// sequentially).
type hooks struct {
	// beforeReceive runs immediately before a shard waits for its
	// next message. Blocking here wedges the shard while it holds no
	// work, so the queue in front of it fills.
	beforeReceive func(shard int)
	// beforeIngest runs before a shard processes one packet. Blocking
	// here wedges the shard mid-batch; panicking simulates a poisoned
	// flow.
	beforeIngest func(shard int, p trace.Packet)
}

func (cfg *Config) fillDefaults() {
	if cfg.W <= 0 {
		cfg.W = 5 * time.Second
	}
	if cfg.RingCap <= 0 {
		cfg.RingCap = 4096
	}
	if cfg.Interfaces <= 0 {
		cfg.Interfaces = 3
	}
	if cfg.Interfaces > vmac.MaxInterfaces {
		cfg.Interfaces = vmac.MaxInterfaces
	}
	if cfg.Period <= 0 {
		cfg.Period = 500
	}
	if cfg.Period < cfg.Interfaces {
		cfg.Period = cfg.Interfaces
	}
	if cfg.EscalateAfter <= 0 {
		cfg.EscalateAfter = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 2
	}
	if cfg.Shards < 0 {
		cfg.Shards = 0
	}
}

// Digest constants. fnvOffset/fnvPrime are the FNV-1a parameters used
// for flow hashing; mix is the digest fold.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Event markers folded into flow digests alongside packet data.
const (
	markWindow   = 0xd1a7_0001
	markLeak     = 0xd1a7_0002
	markEscalate = 0xd1a7_0003
	markPredict  = 0xd1a7_0004
)

// mix folds v into h: one xor-multiply-rotate round. The digest is an
// internal change detector (replay equivalence), not a cryptographic
// hash, and this fold runs three times per ingested packet — a
// byte-at-a-time FNV here costs more than the rest of the scheduling
// path combined.
func mix(h, v uint64) uint64 {
	h ^= v
	h *= 0x9e3779b97f4a7c15
	return (h << 23) | (h >> 41)
}

// flowHash keys both shard routing and the flow's SplitAt RNG stream.
// It depends only on the flow address, never on arrival order.
func flowHash(a mac.Address) uint64 {
	h := uint64(fnvOffset)
	for _, b := range a {
		h ^= uint64(b)
		h *= fnvPrime
	}
	return h
}

// addrKey packs a flow address into the low 48 bits of a uint64, the
// key of a shard's flow map. The runtime hashes a uint64 key on its
// 64-bit fast path; a 6-byte array key goes through the generic
// variable-length hasher on every packet.
func addrKey(a mac.Address) uint64 {
	return uint64(a[0])<<40 | uint64(a[1])<<32 | uint64(a[2])<<24 |
		uint64(a[3])<<16 | uint64(a[4])<<8 | uint64(a[5])
}

// flowVals are a flow's plain values: everything the engine keeps of
// a flow by value. flowState and flowSnap both embed them, so a
// checkpoint copies them whole. The fields ingest touches on every
// packet come first.
type flowVals struct {
	winStart time.Duration
	digest   uint64
	packets  int64
	winDown  int // downlink packets in the current window, incl. evicted
	started  bool

	addr        mac.Address
	ifaces      int
	granted     int
	leakStreak  int
	evicted     int64
	windows     int64
	classified  int64
	leakedWins  int64
	escalations int64
	vmacErrors  int64
	predHist    [trace.NumApps]int64
}

// flowState is everything the engine remembers about one flow. It is
// owned by exactly one shard, so no field needs synchronization.
type flowState struct {
	ring  *trace.Ring
	ifbuf []uint8 // interface assignment per ring slot, read through runs
	slot  int     // next ifbuf write position, mirrors the ring head
	sched *reshape.Adaptive
	flowVals
	client *vmac.Client
	rng    *stats.RNG
}

// msgOp is what a shard message asks of its shard.
type msgOp uint8

const (
	opBatch   msgOp = iota // ingest batch
	opSnap                 // snapshot the flows: the checkpoint barrier
	opInstall              // replace the flows with flows: restore
	opDrain                // close every flow's final window; the last message
)

var opNames = [...]string{opSnap: "snapshot", opInstall: "install", opDrain: "drain"}

type shardMsg struct {
	op    msgOp
	batch []trace.Packet // opBatch
	flows []flowSnap     // opInstall
}

// reply answers one control message: the slot's flows after a
// snapshot or install, or why it failed.
type reply struct {
	flows []flowSnap
	err   error
}

// errReaped is reported when a control-plane request (checkpoint
// barrier, restore install) lands on a shard the watchdog reaped
// before it could answer.
var errReaped = errors.New("stream: shard reaped while request in flight")

type shard struct {
	e   *Engine
	idx int

	// flows holds the shard's flows, keyed by addrKey of the address.
	// Window close reads each flow's ring in place, so the shard keeps
	// no per-packet scratch.
	flows map[uint64]*flowState

	// in and free are the batch queue and its recycled buffers; both
	// are nil on the inline slot, which has no goroutine.
	in   chan shardMsg
	free chan []trace.Packet

	// Supervision state. sent counts packets handed to this shard's
	// queue (producer-side); processed counts packets consumed from it
	// (consumer-side, including packets later rolled back by a panic);
	// accounted is the high-water mark of packets whose fate is
	// settled — reflected in the last checkpoint snapshot or already
	// counted lost. The invariant the chaos tests pin: a shard's
	// contribution to the report is accounted-reflected packets plus
	// (sent - accounted) lost ones, so packets are conserved through
	// any sequence of panics and reaps.
	sent      atomic.Int64
	processed atomic.Int64
	accounted atomic.Int64
	restarts  atomic.Int64
	lost      atomic.Int64
	reaped    atomic.Bool

	// Heartbeat for the watchdog: busy is set while a message is being
	// handled, beat increments when one starts. A busy shard whose
	// beat has not moved for the watchdog interval is wedged.
	busy atomic.Bool
	beat atomic.Int64

	// lastLocalSnap is the shard's own copy of its latest checkpoint
	// snapshot — what a panic rolls back to. Written only by the shard
	// goroutine (at the snapshot barrier) or before the goroutine
	// starts (reap replacement, restore), so it needs no lock.
	lastLocalSnap []flowSnap
}

func newShard(e *Engine, idx int) *shard {
	return &shard{
		e:     e,
		idx:   idx,
		flows: make(map[uint64]*flowState),
	}
}

// newShardWithQueue builds a shard with a fresh bounded queue and
// recycled-buffer pool. The pool holds QueueDepth+2 buffers: one being
// filled by the producer, QueueDepth queued, one in the consumer's
// hands — so the producer can always reclaim a buffer after a
// successful send without blocking.
func newShardWithQueue(e *Engine, idx int) *shard {
	sh := newShard(e, idx)
	sh.in = make(chan shardMsg, e.cfg.QueueDepth)
	sh.free = make(chan []trace.Packet, e.cfg.QueueDepth+2)
	for j := 0; j < e.cfg.QueueDepth+2; j++ {
		sh.free <- make([]trace.Packet, 0, batchSize)
	}
	return sh
}

// Engine ingests a packet stream and applies the online defense. One
// goroutine produces (Ingest/Drain/Checkpoint are not safe for
// concurrent callers); the shards consume; the watchdog supervises.
type Engine struct {
	cfg    Config
	ap     *vmac.AP
	master *stats.RNG

	// shards holds one shard per slot: Config.Shards slots, or one for
	// inline mode. inline is slot 0's shard in inline mode and nil when
	// sharded; only Ingest reads it.
	shards []atomic.Pointer[shard]
	inline *shard
	pend   [][]trace.Packet
	final  *Report

	// replies has one channel per slot, capacity 1, on which the slot's
	// shard (or a reaped predecessor) answers each control message.
	replies []chan reply

	// Producer-owned admission accounting: admission[i] holds slot i's
	// Shed (fail-open passes) and Stalled (fail-closed drops).
	offered   int64
	admission []ShardStats
	auditOff  atomic.Bool

	// inherited carries a restored checkpoint's fault totals, so a
	// resumed run reports over the whole logical stream.
	inherited ShardStats

	// mu guards the state shared between the producer and the
	// watchdog: the slot pointers' swap with the zombie list, the last
	// checkpoint snapshots.
	mu       sync.Mutex
	lastSnap [][]flowSnap
	zombies  []*shard

	wd *watchdog

	// ckpt holds the last checkpoint image and ckptFlows its flows; the
	// next checkpoint is built over both, so a steady checkpoint
	// interval stops allocating them once the largest has been seen.
	ckpt      []byte
	ckptFlows []flowSnap
}

// New builds an engine and, in sharded mode, starts its shard
// goroutines and (if configured) the watchdog. Drain stops them and
// collects the report; it is idempotent.
func New(cfg Config) *Engine {
	cfg.fillDefaults()
	slots := max(cfg.Shards, 1)
	e := &Engine{
		cfg: cfg,
		ap: vmac.NewAP(vmac.APConfig{
			MaxPerClient: vmac.MaxInterfaces,
			Seed:         cfg.Seed ^ 0x9e3779b97f4a7c15,
		}),
		master:    stats.NewRNG(cfg.Seed),
		shards:    make([]atomic.Pointer[shard], slots),
		replies:   make([]chan reply, slots),
		admission: make([]ShardStats, slots),
		lastSnap:  make([][]flowSnap, slots),
	}
	for i := range e.replies {
		e.replies[i] = make(chan reply, 1)
		e.admission[i].Shard = i
	}
	if cfg.Shards == 0 {
		e.inline = newShard(e, 0)
		e.shards[0].Store(e.inline)
		return e
	}
	e.pend = make([][]trace.Packet, slots)
	for i := range e.shards {
		sh := newShardWithQueue(e, i)
		e.shards[i].Store(sh)
		e.pend[i] = <-sh.free
		go sh.run()
	}
	if cfg.Watchdog > 0 {
		e.wd = newWatchdog(e)
		go e.wd.run()
	}
	return e
}

// run is the supervised consumer loop of a sharded slot. It returns
// right after answering the drain, the last message a live shard
// receives, or when Drain closes a reaped husk's queue.
func (sh *shard) run() {
	for {
		if h := sh.e.cfg.chaos.beforeReceive; h != nil {
			h(sh.idx)
		}
		msg, ok := <-sh.in
		if !ok {
			return
		}
		sh.handle(msg)
		if msg.op == opDrain {
			return
		}
	}
}

// handle processes one message under supervision. A batch survives a
// panic in the ingest path: every packet consumed since the last
// checkpoint — completed batches plus the one that blew up — is lost,
// the flows roll back to the last snapshot, and the loop continues. A
// control message is answered on the slot's reply channel.
func (sh *shard) handle(msg shardMsg) {
	sh.beat.Add(1)
	sh.busy.Store(true)
	defer sh.busy.Store(false)
	if sh.reaped.Load() {
		sh.refuse(msg)
		return
	}
	if msg.op != opBatch {
		sh.e.replies[sh.idx] <- sh.answer(msg)
		return
	}
	defer func() {
		if recover() != nil {
			sh.processed.Add(int64(len(msg.batch)))
			sh.rollback()
		}
		sh.free <- msg.batch[:0]
	}()
	for _, p := range msg.batch {
		sh.ingest(p)
	}
	sh.processed.Add(int64(len(msg.batch)))
}

// answer carries out a control message. A panic in a snapshot or install
// fails the request; a snapshot consumes no packets, so nothing rolls
// back. A panic in the final window close rolls the shard back as one
// mid-stream does, and the restored flows are reported as the snapshot
// left them.
func (sh *shard) answer(msg shardMsg) (r reply) {
	defer func() {
		if recover() == nil {
			return
		}
		r = reply{}
		if msg.op == opDrain {
			sh.rollback()
		} else {
			r.err = fmt.Errorf("stream: shard %d panicked during %s", sh.idx, opNames[msg.op])
		}
	}()
	switch msg.op {
	case opSnap:
		return reply{flows: sh.snapshot()}
	case opInstall:
		return reply{flows: msg.flows, err: sh.install(msg.flows)}
	}
	for _, f := range sh.flows {
		sh.closeWindow(f)
	}
	return reply{}
}

// refuse answers a message a reaped shard will not process: a batch is
// recycled, its packets already lost via sent - accounted, and a
// control message gets errReaped.
func (sh *shard) refuse(msg shardMsg) {
	if msg.op == opBatch {
		sh.free <- msg.batch[:0]
		return
	}
	sh.e.replies[sh.idx] <- reply{err: errReaped}
}

// rollback settles the books after a panic: every packet consumed
// since the last checkpoint is lost, and the flows return to the last
// snapshot.
func (sh *shard) rollback() {
	sh.lost.Add(sh.processed.Load() - sh.accounted.Load())
	sh.accounted.Store(sh.processed.Load())
	sh.restarts.Add(1)
	sh.resetTo(sh.lastLocalSnap)
}

// snapshot serializes the shard's flows for a checkpoint barrier and
// marks every processed packet accounted: the snapshot is now the
// rollback point for panics and reaps.
func (sh *shard) snapshot() []flowSnap {
	snaps := make([]flowSnap, 0, len(sh.flows))
	for _, f := range sh.flows {
		snaps = append(snaps, snapFlow(f))
	}
	sh.lastLocalSnap = snaps
	sh.accounted.Store(sh.processed.Load())
	return snaps
}

// install replaces the shard's flows with a restored snapshot; used by
// Engine.Restore before any traffic flows. The restored packets are
// settled, so a rollback before the next checkpoint loses only what
// follows them. Unlike resetTo it fails loudly if a flow's vMAC grant
// cannot be re-established.
func (sh *shard) install(snaps []flowSnap) error {
	sh.flows = make(map[uint64]*flowState, len(snaps))
	for i := range snaps {
		f, err := sh.restoreFlow(&snaps[i])
		if err != nil {
			return err
		}
		sh.flows[addrKey(f.addr)] = f
	}
	sh.lastLocalSnap = snaps
	sh.accounted.Store(sh.processed.Load())
	return nil
}

// resetTo rolls the shard's flows back to a snapshot (possibly empty:
// restart from scratch). Grant re-establishment errors are absorbed
// into the flow's vmacErrors counter — a restarting shard must come
// back up even if the AP is unhappy.
func (sh *shard) resetTo(snaps []flowSnap) {
	sh.flows = make(map[uint64]*flowState, len(snaps))
	for i := range snaps {
		f, err := sh.restoreFlow(&snaps[i])
		if err != nil {
			f.vmacErrors++
			f.granted = 0
		}
		sh.flows[addrKey(f.addr)] = f
	}
}

// control sends op to every slot — opInstall with flows[i] for slot i —
// and waits for every slot's answer, so none is left over for the next
// request. A sharded slot queues the message behind the batches already
// handed off, so it acts at the producer's frontier. The inline slot
// has no queue: it handles the message at once on the caller's
// goroutine, with processed first set to offered, since inline
// processes each packet as it is offered. A snapshot or install
// becomes its slot's rollback point for reaps. control returns the
// first error.
func (e *Engine) control(op msgOp, flows [][]flowSnap) error {
	for i := range e.shards {
		msg := shardMsg{op: op}
		if flows != nil {
			msg.flows = flows[i]
		}
		if sh := e.shards[i].Load(); sh.in != nil {
			sh.in <- msg
		} else {
			sh.processed.Store(e.offered)
			sh.handle(msg)
		}
	}
	var first error
	for i, ch := range e.replies {
		r := <-ch
		if r.err != nil {
			first = cmp.Or(first, r.err)
		} else if op != opDrain {
			e.mu.Lock()
			e.lastSnap[i] = r.flows
			e.mu.Unlock()
		}
	}
	return first
}

// shardIndex routes a flow's packets to one shard: a pure function of
// the address.
func (e *Engine) shardIndex(a mac.Address) int {
	return int(flowHash(a) % uint64(len(e.shards)))
}

// Ingest feeds one packet. Inline mode processes it at once and
// returns the interface index the scheduler chose; sharded mode
// batches it for the flow's shard goroutine and returns -1. Packets
// of one flow must arrive in time order; flows may interleave
// arbitrarily. Ingest panics after Drain: the report is final, and
// the shards are stopped.
func (e *Engine) Ingest(p trace.Packet) int {
	if e.final != nil {
		panic("stream: Ingest after Drain")
	}
	e.offered++
	if e.inline != nil {
		return e.inline.ingest(p)
	}
	i := e.shardIndex(p.MAC)
	buf := append(e.pend[i], p)
	if len(buf) == cap(buf) {
		buf = e.handoff(i, buf)
	}
	e.pend[i] = buf
	return -1
}

// handoff delivers a full batch under the admission policy and
// returns the producer's next buffer. Under the shedding policies a
// full queue sheds exactly the packet that found it full — the newest
// one — after (optionally) degrading the self-audit first, so load is
// shed before traffic.
func (e *Engine) handoff(i int, buf []trace.Packet) []trace.Packet {
	sh := e.shards[i].Load()
	msg := shardMsg{batch: buf}
	if e.cfg.Policy == PolicyBackpressure {
		sh.in <- msg
		sh.sent.Add(int64(len(buf)))
		return <-sh.free
	}
	select {
	case sh.in <- msg:
		sh.sent.Add(int64(len(buf)))
		return <-sh.free
	default:
	}
	if e.cfg.DegradeAudit && e.auditOff.CompareAndSwap(false, true) {
		// One retry after degrading: the queue may drain once the
		// consumers stop classifying.
		select {
		case sh.in <- msg:
			sh.sent.Add(int64(len(buf)))
			return <-sh.free
		default:
		}
	}
	if e.cfg.Policy == PolicyFailOpen {
		e.admission[i].Shed++
	} else {
		e.admission[i].Stalled++
	}
	return buf[:len(buf)-1]
}

// Offered returns the number of packets offered to the engine so far,
// including any inherited from a restored checkpoint — the stream
// position a resumed daemon skips to.
func (e *Engine) Offered() int64 { return e.offered }

// Flush hands all buffered packets to the shards without waiting for
// them to be processed. Flush is control-plane: it always delivers
// (blocking if needed), regardless of the admission policy.
func (e *Engine) Flush() {
	for i, buf := range e.pend {
		if len(buf) == 0 {
			continue
		}
		sh := e.shards[i].Load()
		sh.in <- shardMsg{batch: buf}
		sh.sent.Add(int64(len(buf)))
		e.pend[i] = <-sh.free
	}
}

// ingest is the per-packet hot path: window maintenance, scheduling,
// ring append, digest fold. Zero heap allocations in steady state.
func (sh *shard) ingest(p trace.Packet) int {
	if h := sh.e.cfg.chaos.beforeIngest; h != nil {
		h(sh.idx, p)
		// A husk un-wedged after the watchdog reaped it must not touch
		// flow or AP state its replacement now owns. Only hooks can
		// park a shard mid-ingest, so production pays nothing here.
		if sh.reaped.Load() {
			return -1
		}
	}
	f := sh.flows[addrKey(p.MAC)]
	if f == nil {
		f = sh.newFlow(p.MAC)
	}
	w := sh.e.cfg.W
	if !f.started {
		f.started = true
		f.winStart = p.Time
	}
	// Distances from the window start, not start+w: a timestamp near
	// the top of the range must not overflow the boundary.
	for p.Time-f.winStart >= w {
		sh.closeWindow(f)
		f.winStart += w
		if p.Time-f.winStart >= w {
			// Idle gap: the skipped windows are empty (the ring was
			// just cut), so jump straight to the window containing p
			// instead of stepping one boundary at a time. The landing
			// point is identical to the batch cutter's repeated
			// start += w.
			f.winStart += ((p.Time - f.winStart) / w) * w
		}
	}
	iface := f.sched.Assign(p)
	if f.ring.Push(p) {
		f.evicted++
	}
	f.ifbuf[f.slot] = uint8(iface)
	f.slot++
	if f.slot == len(f.ifbuf) {
		f.slot = 0
	}
	if p.Dir == trace.Downlink {
		f.winDown++
	}
	f.packets++
	h := mix(f.digest, uint64(p.Time))
	h = mix(h, uint64(p.Size))
	f.digest = mix(h, uint64(p.Dir)<<8|uint64(iface))
	return iface
}

// runs returns the current window as the ring's two arrival-order
// runs of packets, with the matching runs of interface assignments:
// ifbuf is indexed by ring slot, so it splits where the ring does.
func (f *flowState) runs() (pkts [2][]trace.Packet, ifs [2][]uint8) {
	older, newer := f.ring.Segments()
	h := len(newer)
	return [2][]trace.Packet{older, newer}, [2][]uint8{f.ifbuf[h : h+len(older)], f.ifbuf[:h]}
}

// newFlow builds per-flow state and performs the initial Figure 2
// virtual-interface grant. The flow's RNG stream is SplitAt(flowHash):
// independent of every other flow and of shard count.
func (sh *shard) newFlow(addr mac.Address) *flowState {
	e := sh.e
	f := &flowState{
		ring:     trace.NewRing(e.cfg.RingCap),
		ifbuf:    make([]uint8, e.cfg.RingCap),
		sched:    reshape.NewAdaptive(e.cfg.Interfaces, e.cfg.Period),
		flowVals: flowVals{addr: addr, ifaces: e.cfg.Interfaces, digest: fnvOffset},
		client:   vmac.NewClient(addr),
		rng:      e.master.SplitAt(flowHash(addr)),
	}
	sh.grant(f)
	sh.flows[addrKey(addr)] = f
	return f
}

// grant runs the vMAC request/install exchange for f's current
// interface count. If the AP's policy grants fewer interfaces than
// requested, the scheduler is rebuilt to the granted count — the
// engine never schedules onto addresses it does not hold. Grant
// counts depend only on the request and AP policy, so they are
// deterministic; the address bytes are not, and stay out of digests.
func (sh *shard) grant(f *flowState) {
	resp, err := sh.e.ap.HandleRequest(f.client.NewRequest(f.ifaces, f.rng.Uint64()))
	if err != nil {
		f.vmacErrors++
		f.granted = 0
		return
	}
	if err := f.client.Install(resp); err != nil {
		f.vmacErrors++
		f.granted = 0
		return
	}
	f.granted = len(resp.Virtual)
	if f.granted > 0 && f.granted < f.ifaces {
		f.ifaces = f.granted
		f.sched = reshape.NewAdaptive(f.ifaces, sh.e.cfg.Period)
	}
}

// closeWindow runs when a window boundary passes: count it, and if
// the window qualifies as a classification instance, run the
// self-audit — classify the whole window as the eavesdropper would,
// then check every per-interface sub-window against that prediction.
// A sub-flow classified as the same application as the original
// window is a leak (the reshaping failed to disguise that interface);
// EscalateAfter consecutive leaky windows trigger escalation, up to
// the interface ceiling. In degraded mode (admission pressure tripped
// the DegradeAudit latch) the self-audit is skipped entirely.
//
// The audit reads the ring in place: features.ExtractGroups takes the
// window's runs (see runs) and, in two passes whatever the interface
// count, returns the whole window's features and every interface's
// features and downlink count. Every assignment is below
// f.ifaces <= vmac.MaxInterfaces (the checkpoint decoder enforces it
// for restored rings).
func (sh *shard) closeWindow(f *flowState) {
	if f.ring.Len() == 0 {
		return
	}
	w := sh.e.cfg.W
	f.windows++
	f.digest = mix(f.digest, markWindow)
	if c := sh.e.cfg.Classifier; c != nil && !sh.e.auditOff.Load() && features.WindowQualifies(f.winDown, w) {
		pkts, ifs := f.runs()
		var g features.Groups
		features.ExtractGroups(&g, f.ifaces, pkts, ifs)
		obs := c.ClassifyVector(g.Whole)
		f.predHist[obs]++
		f.classified++
		f.digest = mix(f.digest, markPredict)
		f.digest = mix(f.digest, uint64(obs))
		// One matching sub-window settles the verdict, and prediction
		// is pure, so the rest are not classified.
		leaked := false
		for k := 0; k < f.ifaces && !leaked; k++ {
			leaked = features.WindowQualifies(g.Down[k], w) && c.ClassifyVector(g.Sub[k]) == obs
		}
		if leaked {
			f.leakedWins++
			f.leakStreak++
			f.digest = mix(f.digest, markLeak)
			// The ceiling is the vMAC per-client limit, and the period:
			// an adaptive scheduler needs at least one packet per
			// interface per period.
			if f.leakStreak >= sh.e.cfg.EscalateAfter && f.ifaces < min(vmac.MaxInterfaces, sh.e.cfg.Period) {
				sh.escalate(f)
			}
		} else {
			f.leakStreak = 0
		}
	}
	f.ring.Reset()
	f.slot = 0
	f.winDown = 0
}

// escalate raises the flow's interface count by one: a fresh adaptive
// scheduler over i+1 ranges, and a vMAC reconfiguration — release the
// old grant, request the larger one under a fresh nonce from the
// flow's own RNG stream.
func (sh *shard) escalate(f *flowState) {
	f.ifaces++
	f.sched = reshape.NewAdaptive(f.ifaces, sh.e.cfg.Period)
	f.escalations++
	f.leakStreak = 0
	f.digest = mix(f.digest, markEscalate)
	f.digest = mix(f.digest, uint64(f.ifaces))
	if err := sh.e.ap.Release(f.addr); err != nil && !errors.Is(err, vmac.ErrUnknownClient) {
		f.vmacErrors++
	}
	f.client.Reset()
	sh.grant(f)
}

// Drain flushes buffered packets, stops the watchdog, closes every
// flow's final partial window (mirroring the batch cutter's trailing
// flush), stops the shards and returns the deterministic report. The
// final windows close in each slot's handle, as a drain message queued
// behind the slot's last batch, under the supervision of every other
// message: a panic in the final audit rolls the shard back to its last
// checkpoint and counts the packets consumed since as lost, as one
// mid-stream does. Drain is idempotent: subsequent calls return the
// same Report.
func (e *Engine) Drain() *Report {
	if e.final != nil {
		return e.final
	}
	if e.wd != nil {
		e.wd.halt()
	}
	e.Flush()
	e.control(opDrain, nil) // a drain answers no error: its panics roll back
	// Reaped husks: close their queues so their drainers (and the husk
	// goroutines, once un-wedged) exit. Their flows are discarded;
	// their losses are read off the atomic counters.
	e.mu.Lock()
	for _, z := range e.zombies {
		close(z.in)
	}
	e.mu.Unlock()
	e.final = e.report()
	return e.final
}

// --- Report -----------------------------------------------------------------

// FlowReport is one flow's deterministic summary.
type FlowReport struct {
	MAC         string
	Packets     int64
	Evicted     int64
	Windows     int64
	Classified  int64
	Leaked      int64
	Escalations int64
	VmacErrors  int64
	Interfaces  int
	Granted     int
	Epochs      int
	Digest      uint64
	Pred        [trace.NumApps]int64
}

// ShardStats is one shard slot's fault and admission accounting,
// aggregated across the slot's whole lineage (the live shard plus any
// reaped predecessors).
type ShardStats struct {
	Shard    int
	Shed     int64 // fail-open passes: packets that left unshaped
	Stalled  int64 // fail-closed drops
	Lost     int64 // packets rolled back by restarts or stranded by reaps
	Restarts int64 // panic-recovery restarts
	Reaps    int64 // watchdog reaps
}

func (s ShardStats) active() bool {
	return s.Shed|s.Stalled|s.Lost|s.Restarts|s.Reaps != 0
}

func (s *ShardStats) add(o ShardStats) {
	s.Shed += o.Shed
	s.Stalled += o.Stalled
	s.Lost += o.Lost
	s.Restarts += o.Restarts
	s.Reaps += o.Reaps
}

// faults sums the fault counters over the whole logical stream: each
// slot's admission drops, its live shard's and reaped predecessors'
// losses and restarts, its reaps, and the totals a restored checkpoint
// carried in. slot, if not nil, is passed each slot's own totals in
// slot order.
func (e *Engine) faults(slot func(ShardStats)) ShardStats {
	total := e.inherited
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range e.shards {
		s := e.admission[i]
		sh := e.shards[i].Load()
		s.Lost += sh.lost.Load()
		s.Restarts += sh.restarts.Load()
		for _, z := range e.zombies {
			if z.idx == i {
				s.Lost += z.lost.Load() + z.sent.Load() - z.accounted.Load()
				s.Restarts += z.restarts.Load()
				s.Reaps++
			}
		}
		total.add(s)
		if slot != nil {
			slot(s)
		}
	}
	return total
}

// Report is the engine's end-of-run summary. Every field, and the
// text rendering, is byte-identical across runs and shard counts for
// the same input and seed — fault counters included, provided the
// fault schedule itself is deterministic (no faults, or a logical
// chaos plan). The conservation invariant: Offered = Packets + Shed +
// Stalled + Lost.
type Report struct {
	Flows       []FlowReport
	Packets     int64
	Windows     int64
	Classified  int64
	Leaked      int64
	Escalations int64
	Outstanding int

	Policy   ShedPolicy
	Offered  int64
	Shed     int64
	Stalled  int64
	Lost     int64
	Restarts int64
	Reaps    int64
	Degraded bool
	Shards   []ShardStats // only slots with nonzero activity

	Digest uint64
}

func (e *Engine) report() *Report {
	r := &Report{
		Outstanding: e.ap.Outstanding(),
		Policy:      e.cfg.Policy,
		Offered:     e.offered,
		Degraded:    e.auditOff.Load(),
	}
	t := e.faults(func(s ShardStats) {
		if s.active() {
			r.Shards = append(r.Shards, s)
		}
	})
	r.Shed, r.Stalled, r.Lost, r.Restarts, r.Reaps = t.Shed, t.Stalled, t.Lost, t.Restarts, t.Reaps
	for i := range e.shards {
		for _, f := range e.shards[i].Load().flows {
			fr := FlowReport{
				MAC:         f.addr.String(),
				Packets:     f.packets,
				Evicted:     f.evicted,
				Windows:     f.windows,
				Classified:  f.classified,
				Leaked:      f.leakedWins,
				Escalations: f.escalations,
				VmacErrors:  f.vmacErrors,
				Interfaces:  f.ifaces,
				Granted:     f.granted,
				Epochs:      f.sched.Epochs(),
				Digest:      f.digest,
				Pred:        f.predHist,
			}
			r.Flows = append(r.Flows, fr)
			r.Packets += f.packets
			r.Windows += f.windows
			r.Classified += f.classified
			r.Leaked += f.leakedWins
			r.Escalations += f.escalations
		}
	}
	sort.Slice(r.Flows, func(i, j int) bool { return r.Flows[i].MAC < r.Flows[j].MAC })
	h := uint64(fnvOffset)
	h = mix(h, uint64(len(r.Flows)))
	for _, f := range r.Flows {
		h = mix(h, f.Digest)
	}
	h = mix(h, uint64(r.Offered))
	h = mix(h, uint64(r.Shed))
	h = mix(h, uint64(r.Stalled))
	h = mix(h, uint64(r.Lost))
	h = mix(h, uint64(r.Restarts))
	h = mix(h, uint64(r.Reaps))
	if r.Degraded {
		h = mix(h, 1)
	}
	r.Digest = h
	return r
}

// WriteTo renders the report as deterministic text, the byte stream
// the replay and kill-and-restore CI jobs compare across shard counts.
func (r *Report) WriteTo(w io.Writer) (int64, error) {
	var n int64
	pf := func(format string, args ...any) error {
		m, err := fmt.Fprintf(w, format, args...)
		n += int64(m)
		return err
	}
	if err := pf("stream report\nflows=%d packets=%d windows=%d classified=%d leaked=%d escalations=%d vmac_outstanding=%d\nadmission policy=%s offered=%d shed=%d stalled=%d lost=%d restarts=%d reaps=%d degraded=%t\ndigest=%016x\n",
		len(r.Flows), r.Packets, r.Windows, r.Classified, r.Leaked, r.Escalations, r.Outstanding,
		r.Policy, r.Offered, r.Shed, r.Stalled, r.Lost, r.Restarts, r.Reaps, r.Degraded, r.Digest); err != nil {
		return n, err
	}
	for _, s := range r.Shards {
		if err := pf("shard %d shed=%d stalled=%d lost=%d restarts=%d reaps=%d\n",
			s.Shard, s.Shed, s.Stalled, s.Lost, s.Restarts, s.Reaps); err != nil {
			return n, err
		}
	}
	for _, f := range r.Flows {
		if err := pf("flow %s packets=%d evicted=%d windows=%d classified=%d leaked=%d escalations=%d vmac_errors=%d ifaces=%d granted=%d epochs=%d digest=%016x\n",
			f.MAC, f.Packets, f.Evicted, f.Windows, f.Classified, f.Leaked, f.Escalations, f.VmacErrors, f.Interfaces, f.Granted, f.Epochs, f.Digest); err != nil {
			return n, err
		}
		for a := 0; a < trace.NumApps; a++ {
			if f.Pred[a] == 0 {
				continue
			}
			if err := pf("  pred %s=%d\n", trace.App(a), f.Pred[a]); err != nil {
				return n, err
			}
		}
	}
	return n, nil
}
