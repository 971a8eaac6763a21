// Package stream is the online reshaping engine: the long-running
// counterpart of the batch grid evaluation. Packets arrive one at a
// time, are routed to a per-flow state machine (fixed-capacity ring
// window, adaptive scheduler, virtual-interface grant), and the
// defense reacts as the flow evolves — re-deriving the scheduler's
// size ranges every epoch, auditing its own reshaping through the
// eavesdropper's classifier, and escalating the interface count via
// the vMAC configuration protocol when a flow keeps leaking.
//
// Determinism is the load-bearing property. Every per-flow decision —
// scheduling, window boundaries, classification, escalation, nonce
// draws — is a pure function of that flow's packet sequence and the
// master seed: per-flow RNG streams come from stats.RNG.SplitAt keyed
// by a hash of the flow address, so they do not depend on flow
// arrival order or shard count. Replaying a captured trace therefore
// produces a byte-identical Report whether the engine runs inline or
// sharded over any number of goroutines. The only shard-order-
// dependent values in the system are the virtual MAC address *bytes*
// (the AP's pool is a shared allocator), so addresses are deliberately
// excluded from digests and reports; grant counts, which depend only
// on per-flow requests and AP policy, are included.
//
// Overload and failure are explicit, accounted-for states rather than
// hangs or silent data loss. The shard handoff is a bounded queue
// with a configurable admission policy: backpressure (block, the
// legacy semantics), fail-closed (drop the packet — traffic stalls
// but nothing ever leaves unshaped) or fail-open (pass the packet
// through unshaped, counted as a leak). Before the first packet is
// shed the engine can degrade itself instead, switching off the
// self-audit classifier to shed load rather than traffic. Shard
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
// state — including window close, self-audit classification and
// admission accounting, which reuse per-shard scratch — so the
// engine's footprint is bounded by the number of live flows, not by
// traffic volume.
package stream

import (
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
	"trafficreshape/internal/stream/streamchaos"
	"trafficreshape/internal/trace"
	"trafficreshape/internal/vmac"
)

// ShedPolicy selects what a full shard queue does to the packet that
// found it full.
type ShedPolicy uint8

const (
	// PolicyBackpressure blocks the producer until the queue drains —
	// the legacy semantics. Nothing is ever shed, so replay results
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
	// RingCap bounds the packets held per flow window (default 4096).
	// A window with more packets than RingCap keeps only the most
	// recent RingCap for classification; qualification still counts
	// every packet.
	RingCap int
	// Interfaces is the initial virtual interface count per flow
	// (default 3, the paper's recommendation).
	Interfaces int
	// Period is the adaptive scheduler's re-derivation period in
	// packets (default 500).
	Period int
	// Seed drives every deterministic draw in the engine.
	Seed uint64
	// Shards selects the execution mode: 0 processes packets inline
	// on the caller's goroutine; N > 0 runs N shard goroutines with
	// batched hand-off. Results are identical either way.
	Shards int
	// BatchSize is the packets per shard batch in sharded mode
	// (default 256).
	BatchSize int
	// QueueDepth bounds the batches queued per shard (default 2).
	// With BatchSize it fixes the engine's maximum in-flight buffer:
	// admission control triggers once a shard has QueueDepth batches
	// queued and one more full batch pending.
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
	// prediction to detect leaks.
	Classifier *attack.Classifier
	// EscalateAfter is how many consecutive leaky windows trigger a
	// +1 interface escalation (default 2).
	EscalateAfter int
	// AP overrides the engine-owned virtual-MAC allocator, letting a
	// daemon share one AP across engines. Checkpoint/Restore assumes
	// the engine owns its AP: restoring re-requests every flow's
	// grant, which is idempotent on an AP that already holds them but
	// allocates afresh on a new one.
	AP *vmac.AP
	// Chaos injects faults at the engine's scheduling points. Tests
	// only; nil in production.
	Chaos *streamchaos.Hooks
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
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 256
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

// flowState is everything the engine remembers about one flow. It is
// owned by exactly one shard, so no field needs synchronization.
type flowState struct {
	addr   mac.Address
	ring   *trace.Ring
	ifbuf  []uint8 // interface assignment per ring slot
	slot   int     // next ifbuf write position, mirrors the ring head
	sched  *reshape.Adaptive
	ifaces int
	client *vmac.Client
	rng    *stats.RNG
	digest uint64

	winStart time.Duration
	started  bool
	winDown  int // downlink packets in the current window, incl. evicted

	packets     int64
	evicted     int64
	windows     int64
	classified  int64
	leakedWins  int64
	escalations int64
	vmacErrors  int64
	leakStreak  int
	granted     int
	predHist    [trace.NumApps]int64
}

type syncReq struct {
	p     trace.Packet
	reply chan int
}

// snapReply carries one shard's checkpoint snapshot back to the
// barrier in Engine.Checkpoint.
type snapReply struct {
	flows []flowSnap
	err   error
}

// installReq hands a restored flow set to the shard that owns it.
type installReq struct {
	flows []flowSnap
	done  chan error
}

type shardMsg struct {
	batch   []trace.Packet
	sync    *syncReq
	snap    chan snapReply
	install *installReq
}

// errReaped is reported when a control-plane request (checkpoint
// barrier, restore install) lands on a shard the watchdog reaped
// before it could answer.
var errReaped = errors.New("stream: shard reaped while request in flight")

type shard struct {
	e   *Engine
	idx int

	flows map[mac.Address]*flowState

	// classification scratch, sized to RingCap so window close never
	// allocates.
	winScratch []trace.Packet
	subScratch []trace.Packet

	in   chan shardMsg
	free chan []trace.Packet
	done chan struct{}

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
		e:          e,
		idx:        idx,
		flows:      make(map[mac.Address]*flowState),
		winScratch: make([]trace.Packet, 0, e.cfg.RingCap),
		subScratch: make([]trace.Packet, 0, e.cfg.RingCap),
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
		sh.free <- make([]trace.Packet, 0, e.cfg.BatchSize)
	}
	sh.done = make(chan struct{})
	return sh
}

// Engine ingests a packet stream and applies the online defense. One
// goroutine produces (Ingest/Source/Drain/Checkpoint are not safe for
// concurrent callers); the shards consume; the watchdog supervises.
type Engine struct {
	cfg    Config
	ap     *vmac.AP
	master *stats.RNG

	inline  *shard
	nshards int
	shards  []atomic.Pointer[shard]
	pend    [][]trace.Packet
	final   *Report

	// Producer-owned admission accounting.
	offered       int64
	shedBy        []int64 // per shard: fail-open passes (unshaped leaks)
	stallBy       []int64 // per shard: fail-closed drops
	degradeEvents int64
	auditOff      atomic.Bool

	// inherited* carry a restored checkpoint's fault totals, so a
	// resumed run reports over the whole logical stream.
	inheritedShed, inheritedStalled, inheritedLost int64
	inheritedRestarts, inheritedReaps              int64

	// Cached chaos hooks (nil in production: one predictable branch).
	chaosReceive func(int)
	chaosIngest  func(int, trace.Packet)

	// mu guards the state shared between the producer and the
	// watchdog: last checkpoint snapshots, reaped shard husks.
	mu       sync.Mutex
	lastSnap [][]flowSnap
	zombies  []*shard
	reaps    int64

	wd *watchdog
}

// New builds an engine and, in sharded mode, starts its shard
// goroutines and (if configured) the watchdog. Drain stops them and
// collects the report; it is idempotent.
func New(cfg Config) *Engine {
	cfg.fillDefaults()
	e := &Engine{cfg: cfg, ap: cfg.AP, master: stats.NewRNG(cfg.Seed)}
	if cfg.Chaos != nil {
		e.chaosReceive = cfg.Chaos.BeforeReceive
		e.chaosIngest = cfg.Chaos.BeforeIngest
	}
	if e.ap == nil {
		e.ap = vmac.NewAP(vmac.APConfig{
			MaxPerClient: vmac.MaxInterfaces,
			Seed:         cfg.Seed ^ 0x9e3779b97f4a7c15,
		})
	}
	if cfg.Shards == 0 {
		e.inline = newShard(e, 0)
		return e
	}
	e.nshards = cfg.Shards
	e.shards = make([]atomic.Pointer[shard], cfg.Shards)
	e.pend = make([][]trace.Packet, cfg.Shards)
	e.shedBy = make([]int64, cfg.Shards)
	e.stallBy = make([]int64, cfg.Shards)
	e.lastSnap = make([][]flowSnap, cfg.Shards)
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

// run is the supervised consumer loop: it survives panics in the
// ingest path by rolling the shard back to its last checkpoint
// snapshot, counting the rolled-back packets as lost, and continuing.
func (sh *shard) run() {
	defer close(sh.done)
	for {
		if h := sh.e.chaosReceive; h != nil {
			h(sh.idx)
		}
		msg, ok := <-sh.in
		if !ok {
			return
		}
		sh.handle(msg)
	}
}

func (sh *shard) handle(msg shardMsg) {
	sh.beat.Add(1)
	sh.busy.Store(true)
	defer sh.busy.Store(false)
	defer func() {
		if r := recover(); r != nil {
			sh.recoverPanic(msg)
		}
	}()
	switch {
	case msg.sync != nil:
		if sh.reaped.Load() {
			msg.sync.reply <- -1
			return
		}
		iface := sh.ingest(msg.sync.p)
		sh.processed.Add(1)
		msg.sync.reply <- iface
	case msg.snap != nil:
		msg.snap <- sh.snapshot()
	case msg.install != nil:
		msg.install.done <- sh.install(msg.install.flows)
	default:
		if sh.reaped.Load() {
			// Reaped husk: recycle without processing. The packets are
			// already accounted as lost via sent - accounted.
			sh.free <- msg.batch[:0]
			return
		}
		for _, p := range msg.batch {
			sh.ingest(p)
		}
		sh.processed.Add(int64(len(msg.batch)))
		sh.free <- msg.batch[:0]
	}
}

// recoverPanic settles the books after a panic in handle: every packet
// consumed since the last checkpoint — completed batches plus the one
// that blew up — is lost, the flows roll back to the last snapshot,
// and the loop continues. A synchronous caller waiting on the packet
// gets -1.
func (sh *shard) recoverPanic(msg shardMsg) {
	switch {
	case msg.sync != nil:
		sh.processed.Add(1)
		msg.sync.reply <- -1
	case msg.snap != nil:
		msg.snap <- snapReply{err: fmt.Errorf("stream: shard %d panicked during snapshot", sh.idx)}
		return // snapshot does not consume packets; nothing to roll back
	case msg.install != nil:
		msg.install.done <- fmt.Errorf("stream: shard %d panicked during install", sh.idx)
		return
	default:
		sh.processed.Add(int64(len(msg.batch)))
		defer func() { sh.free <- msg.batch[:0] }()
	}
	sh.lost.Add(sh.processed.Load() - sh.accounted.Load())
	sh.accounted.Store(sh.processed.Load())
	sh.restarts.Add(1)
	sh.resetTo(sh.lastLocalSnap)
}

// snapshot serializes the shard's flows for a checkpoint barrier and
// marks every processed packet accounted: the snapshot is now the
// rollback point for panics and reaps.
func (sh *shard) snapshot() snapReply {
	snaps := make([]flowSnap, 0, len(sh.flows))
	for _, f := range sh.flows {
		snaps = append(snaps, snapFlow(f))
	}
	sh.lastLocalSnap = snaps
	sh.accounted.Store(sh.processed.Load())
	return snapReply{flows: snaps}
}

// install replaces the shard's flows with a restored snapshot; used by
// Engine.Restore before any traffic flows. Unlike resetTo it fails
// loudly if a flow's vMAC grant cannot be re-established.
func (sh *shard) install(snaps []flowSnap) error {
	sh.flows = make(map[mac.Address]*flowState, len(snaps))
	for i := range snaps {
		f, err := sh.restoreFlow(&snaps[i])
		if err != nil {
			return err
		}
		sh.flows[f.addr] = f
	}
	sh.lastLocalSnap = snaps
	return nil
}

// resetTo rolls the shard's flows back to a snapshot (possibly empty:
// restart from scratch). Grant re-establishment errors are absorbed
// into the flow's vmacErrors counter — a restarting shard must come
// back up even if the AP is unhappy.
func (sh *shard) resetTo(snaps []flowSnap) {
	sh.flows = make(map[mac.Address]*flowState, len(snaps))
	for i := range snaps {
		f, err := sh.restoreFlow(&snaps[i])
		if err != nil {
			f.vmacErrors++
			f.granted = 0
		}
		sh.flows[f.addr] = f
	}
}

// shardIndex routes a flow's packets to one shard: a pure function of
// the address.
func (e *Engine) shardIndex(a mac.Address) int {
	return int(flowHash(a) % uint64(e.nshards))
}

// Ingest feeds one packet. Inline mode processes it synchronously and
// returns the interface index the scheduler chose; sharded mode
// buffers it for asynchronous processing and returns -1 (use Source
// for a synchronous per-packet decision). Packets of one flow must
// arrive in time order; flows may interleave arbitrarily.
func (e *Engine) Ingest(p trace.Packet) int {
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
		e.degradeEvents++
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
		e.shedBy[i]++
	} else {
		e.stallBy[i]++
	}
	return buf[:len(buf)-1]
}

// IngestTrace feeds every packet of a trace in order.
func (e *Engine) IngestTrace(tr *trace.Trace) {
	for _, p := range tr.Packets {
		e.Ingest(p)
	}
}

// Offered returns the number of packets offered to the engine so far,
// including any inherited from a restored checkpoint — the stream
// position a resumed daemon skips to.
func (e *Engine) Offered() int64 { return e.offered }

// Flush hands all buffered packets to the shards without waiting for
// them to be processed. Flush is control-plane: it always delivers
// (blocking if needed), regardless of the admission policy.
func (e *Engine) Flush() {
	for i := range e.pend {
		e.flushShard(i)
	}
}

func (e *Engine) flushShard(i int) {
	if len(e.pend[i]) == 0 {
		return
	}
	sh := e.shards[i].Load()
	sh.in <- shardMsg{batch: e.pend[i]}
	sh.sent.Add(int64(len(e.pend[i])))
	e.pend[i] = <-sh.free
}

// Source is a synchronous per-flow handle: Assign blocks until the
// engine has processed the packet and returns the interface decision,
// the round-trip an inline shaper pays when it cannot transmit before
// knowing which virtual address carries the packet. Allocation-free
// per call.
type Source struct {
	e   *Engine
	idx int
	req syncReq
}

// Source returns a synchronous handle for the flow owning addr.
func (e *Engine) Source(addr mac.Address) *Source {
	s := &Source{e: e, req: syncReq{reply: make(chan int, 1)}}
	if e.inline == nil {
		s.idx = e.shardIndex(addr)
	}
	return s
}

// Assign processes one packet synchronously and returns its interface.
// A packet dropped by a mid-flight shard restart returns -1.
func (s *Source) Assign(p trace.Packet) int {
	e := s.e
	e.offered++
	if e.inline != nil {
		return e.inline.ingest(p)
	}
	// Preserve per-flow ordering with any batched packets already
	// buffered for this shard.
	e.flushShard(s.idx)
	sh := e.shards[s.idx].Load()
	s.req.p = p
	sh.in <- shardMsg{sync: &s.req}
	sh.sent.Add(1)
	return <-s.req.reply
}

// ingest is the per-packet hot path: window maintenance, scheduling,
// ring append, digest fold. Zero heap allocations in steady state.
func (sh *shard) ingest(p trace.Packet) int {
	if h := sh.e.chaosIngest; h != nil {
		h(sh.idx, p)
		// A husk un-wedged after the watchdog reaped it must not touch
		// flow or AP state its replacement now owns. Only hooks can
		// park a shard mid-ingest, so production pays nothing here.
		if sh.reaped.Load() {
			return -1
		}
	}
	f := sh.flows[p.MAC]
	if f == nil {
		f = sh.newFlow(p.MAC)
	}
	w := sh.e.cfg.W
	if !f.started {
		f.started = true
		f.winStart = p.Time
	}
	for p.Time >= f.winStart+w {
		sh.closeWindow(f)
		f.winStart += w
		if p.Time >= f.winStart+w {
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

// newFlow builds per-flow state and performs the initial Figure 2
// virtual-interface grant. The flow's RNG stream is SplitAt(flowHash):
// independent of every other flow and of shard count.
func (sh *shard) newFlow(addr mac.Address) *flowState {
	e := sh.e
	f := &flowState{
		addr:   addr,
		ring:   trace.NewRing(e.cfg.RingCap),
		ifbuf:  make([]uint8, e.cfg.RingCap),
		sched:  reshape.NewAdaptive(e.cfg.Interfaces, e.cfg.Period),
		ifaces: e.cfg.Interfaces,
		client: vmac.NewClient(addr),
		rng:    e.master.SplitAt(flowHash(addr)),
		digest: fnvOffset,
	}
	sh.grant(f)
	sh.flows[addr] = f
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
// EscalateAfter consecutive leaky windows trigger escalation. In
// degraded mode (admission pressure tripped the DegradeAudit latch)
// the self-audit is skipped entirely.
func (sh *shard) closeWindow(f *flowState) {
	if f.ring.Len() == 0 {
		return
	}
	w := sh.e.cfg.W
	f.windows++
	f.digest = mix(f.digest, markWindow)
	if c := sh.e.cfg.Classifier; c != nil && !sh.e.auditOff.Load() && features.WindowQualifies(f.winDown, w) {
		sh.winScratch = f.ring.AppendTo(sh.winScratch[:0])
		obs := c.Classify(trace.Window{Start: f.winStart, W: w, Packets: sh.winScratch})
		f.predHist[obs]++
		f.classified++
		f.digest = mix(f.digest, markPredict)
		f.digest = mix(f.digest, uint64(obs))
		leaked := false
		// winScratch holds the window in arrival order; the matching
		// interface assignments start at ifbuf slot 0 while the ring
		// was filling, or at the next write position (the oldest
		// surviving slot) once it wrapped.
		n := f.ring.Len()
		start := 0
		if n == len(f.ifbuf) {
			start = f.slot
		}
		for k := 0; k < f.ifaces; k++ {
			sh.subScratch = sh.subScratch[:0]
			subDown := 0
			slot := start
			for i := 0; i < n; i++ {
				if int(f.ifbuf[slot]) == k {
					pk := sh.winScratch[i]
					sh.subScratch = append(sh.subScratch, pk)
					if pk.Dir == trace.Downlink {
						subDown++
					}
				}
				slot++
				if slot == len(f.ifbuf) {
					slot = 0
				}
			}
			if !features.WindowQualifies(subDown, w) {
				continue
			}
			if c.Classify(trace.Window{Start: f.winStart, W: w, Packets: sh.subScratch}) == obs {
				leaked = true
			}
		}
		if leaked {
			f.leakedWins++
			f.leakStreak++
			f.digest = mix(f.digest, markLeak)
			if f.leakStreak >= sh.e.cfg.EscalateAfter && f.ifaces < vmac.MaxInterfaces {
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

// Drain flushes buffered packets, stops the watchdog and the shards,
// closes every flow's final partial window (mirroring the batch
// cutter's trailing flush), and returns the deterministic report.
// Drain is idempotent: subsequent calls return the same Report.
func (e *Engine) Drain() *Report {
	if e.final != nil {
		return e.final
	}
	if e.wd != nil {
		e.wd.halt()
	}
	shards := []*shard{e.inline}
	if e.inline == nil {
		e.Flush()
		shards = make([]*shard, e.nshards)
		for i := range e.shards {
			sh := e.shards[i].Load()
			close(sh.in)
			shards[i] = sh
		}
		for _, sh := range shards {
			<-sh.done
		}
		// Reaped husks: close their queues so their drainers (and the
		// husk goroutines, once un-wedged) exit. Their flows are
		// discarded; their losses are read off the atomic counters.
		e.mu.Lock()
		for _, z := range e.zombies {
			close(z.in)
		}
		e.mu.Unlock()
	}
	for _, sh := range shards {
		for _, f := range sh.flows {
			if f.ring.Len() > 0 {
				sh.closeWindow(f)
			}
		}
	}
	e.final = e.report(shards)
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

func (e *Engine) report(shards []*shard) *Report {
	r := &Report{
		Outstanding: e.ap.Outstanding(),
		Policy:      e.cfg.Policy,
		Offered:     e.offered,
		Degraded:    e.auditOff.Load(),
	}
	slots := make([]ShardStats, len(shards))
	for i, sh := range shards {
		slots[i] = ShardStats{
			Shard:    i,
			Lost:     sh.lost.Load(),
			Restarts: sh.restarts.Load(),
		}
		if e.shedBy != nil {
			slots[i].Shed = e.shedBy[i]
			slots[i].Stalled = e.stallBy[i]
		}
	}
	e.mu.Lock()
	for _, z := range e.zombies {
		s := &slots[z.idx]
		s.Lost += z.lost.Load() + z.sent.Load() - z.accounted.Load()
		s.Restarts += z.restarts.Load()
		s.Reaps++
	}
	r.Reaps = e.reaps + e.inheritedReaps
	e.mu.Unlock()
	for _, s := range slots {
		r.Shed += s.Shed
		r.Stalled += s.Stalled
		r.Lost += s.Lost
		r.Restarts += s.Restarts
		if s.active() {
			r.Shards = append(r.Shards, s)
		}
	}
	r.Shed += e.inheritedShed
	r.Stalled += e.inheritedStalled
	r.Lost += e.inheritedLost
	r.Restarts += e.inheritedRestarts

	for _, sh := range shards {
		for _, f := range sh.flows {
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
