package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"trafficreshape/internal/mac"
	"trafficreshape/internal/reshape"
	"trafficreshape/internal/stats"
	"trafficreshape/internal/trace"
	"trafficreshape/internal/vmac"
	"trafficreshape/internal/wire"
)

// Checkpoint format: magic "TRCK" | version(u32), a configuration
// compatibility block, the engine's cumulative counters, the per-flow
// defense state sorted by flow address, and a CRC-32 (IEEE) footer
// over everything before it. Little-endian throughout and decoded
// through internal/wire, like the trace binary codec — ring packets
// reuse its fuzz-hardened 40-byte record layout
// (trace.PutPacketRecord).
//
// The snapshot captures everything a per-flow decision depends on:
// the flow RNG's 256-bit state, the adaptive scheduler's edges and
// pending quantile window, the open eavesdropping window (ring
// contents plus the aligned interface assignments), the escalation
// level and leak streak, and every counter the report renders.
// Restoring it into a fresh engine and replaying the remaining
// packets therefore produces a report byte-identical to the
// uninterrupted run, at any shard count — per-flow state is placement
// independent.
const (
	ckptMagic   = "TRCK"
	ckptVersion = 1
)

// ErrBadCheckpoint is wrapped by every decode error, including CRC
// mismatches from a corrupted or truncated file.
var ErrBadCheckpoint = errors.New("stream: bad checkpoint")

// flowSnap is one flow's serializable state. Ring packets and
// interface assignments are aligned oldest-first.
type flowSnap struct {
	addr     mac.Address
	rng      [4]uint64
	digest   uint64
	winStart time.Duration
	started  bool
	winDown  int64

	packets     int64
	evicted     int64
	windows     int64
	classified  int64
	leakedWins  int64
	escalations int64
	vmacErrors  int64
	leakStreak  int64
	ifaces      int
	granted     int
	predHist    [trace.NumApps]int64

	sched    reshape.AdaptiveState
	ring     []trace.Packet
	ifassign []uint8
}

// snapFlow serializes f. The interface-assignment buffer is rotated
// into ring order: assignments start at slot 0 while the ring is
// filling and at the next write position (the oldest surviving slot)
// once it has wrapped — the same origin closeWindow uses.
func snapFlow(f *flowState) flowSnap {
	n := f.ring.Len()
	s := flowSnap{
		addr:        f.addr,
		rng:         f.rng.State(),
		digest:      f.digest,
		winStart:    f.winStart,
		started:     f.started,
		winDown:     int64(f.winDown),
		packets:     f.packets,
		evicted:     f.evicted,
		windows:     f.windows,
		classified:  f.classified,
		leakedWins:  f.leakedWins,
		escalations: f.escalations,
		vmacErrors:  f.vmacErrors,
		leakStreak:  int64(f.leakStreak),
		ifaces:      f.ifaces,
		granted:     f.granted,
		predHist:    f.predHist,
		sched:       f.sched.State(),
		ring:        f.ring.AppendTo(make([]trace.Packet, 0, n)),
		ifassign:    make([]uint8, n),
	}
	start := 0
	if n == len(f.ifbuf) {
		start = f.slot
	}
	for i := 0; i < n; i++ {
		s.ifassign[i] = f.ifbuf[(start+i)%len(f.ifbuf)]
	}
	return s
}

// restoreFlow rebuilds a flow from its snapshot. Structural errors
// (the snapshot does not fit this engine's configuration) return a
// nil flow; grant re-establishment errors return the flow alongside
// the error so a best-effort caller (panic recovery) can keep it.
//
// The vMAC grant is released and re-requested rather than trusted:
// on a fresh AP (daemon restart) the release is a no-op and the grant
// allocates anew; on a live AP (in-process shard restart) it clears
// whatever the previous incarnation held. Either way the flow ends up
// holding exactly granted interfaces, and the request nonce comes
// from the flow digest — never the flow RNG, whose draw sequence must
// stay aligned with the uninterrupted run.
func (sh *shard) restoreFlow(s *flowSnap) (*flowState, error) {
	e := sh.e
	if len(s.ring) != len(s.ifassign) || len(s.ring) > e.cfg.RingCap {
		return nil, fmt.Errorf("stream: restore: flow %s ring %d/%d entries (cap %d)",
			s.addr, len(s.ring), len(s.ifassign), e.cfg.RingCap)
	}
	sched, err := reshape.RestoreAdaptive(s.sched)
	if err != nil {
		return nil, fmt.Errorf("stream: restore: flow %s: %w", s.addr, err)
	}
	if sched.Interfaces() != s.ifaces {
		return nil, fmt.Errorf("stream: restore: flow %s scheduler has %d interfaces, flow has %d",
			s.addr, sched.Interfaces(), s.ifaces)
	}
	f := &flowState{
		addr:        s.addr,
		ring:        trace.NewRing(e.cfg.RingCap),
		ifbuf:       make([]uint8, e.cfg.RingCap),
		sched:       sched,
		ifaces:      s.ifaces,
		client:      vmac.NewClient(s.addr),
		rng:         stats.NewRNG(0),
		digest:      s.digest,
		winStart:    s.winStart,
		started:     s.started,
		winDown:     int(s.winDown),
		packets:     s.packets,
		evicted:     s.evicted,
		windows:     s.windows,
		classified:  s.classified,
		leakedWins:  s.leakedWins,
		escalations: s.escalations,
		vmacErrors:  s.vmacErrors,
		leakStreak:  int(s.leakStreak),
		granted:     s.granted,
		predHist:    s.predHist,
	}
	f.rng.RestoreState(s.rng)
	for i, p := range s.ring {
		f.ring.Push(p)
		f.ifbuf[i] = s.ifassign[i]
	}
	f.slot = len(s.ring) % e.cfg.RingCap
	if s.granted > 0 {
		if err := e.ap.Release(s.addr); err != nil && !errors.Is(err, vmac.ErrUnknownClient) {
			return f, fmt.Errorf("stream: restore: flow %s release: %w", s.addr, err)
		}
		resp, err := e.ap.HandleRequest(f.client.NewRequest(s.granted, s.digest))
		if err != nil {
			return f, fmt.Errorf("stream: restore: flow %s regrant: %w", s.addr, err)
		}
		if err := f.client.Install(resp); err != nil {
			return f, fmt.Errorf("stream: restore: flow %s install: %w", s.addr, err)
		}
		if len(resp.Virtual) != s.granted {
			return f, fmt.Errorf("stream: restore: flow %s regrant yielded %d interfaces, want %d",
				s.addr, len(resp.Virtual), s.granted)
		}
	}
	return f, nil
}

// ckptData is the decoded checkpoint: configuration echo, cumulative
// counters, flows sorted by address.
type ckptData struct {
	w             time.Duration
	ringCap       int
	interfaces    int
	period        int
	escalateAfter int
	seed          uint64

	offered  int64
	shed     int64
	stalled  int64
	lost     int64
	restarts int64
	reaps    int64
	degraded bool

	flows []flowSnap
}

// Checkpoint snapshots every flow's defense state and the engine's
// cumulative counters to w. In sharded mode it runs a barrier: all
// buffered packets are flushed, then each shard serializes its flows
// at its queue's current frontier — the checkpoint boundary is
// exactly the set of packets Ingested before the call. The snapshot
// also becomes each shard's rollback point for panic recovery and
// watchdog reaps. The producer goroutine must call it; it cannot run
// concurrently with Ingest.
func (e *Engine) Checkpoint(w io.Writer) error {
	if e.final != nil {
		return errors.New("stream: checkpoint after drain")
	}
	d := &ckptData{
		w:             e.cfg.W,
		ringCap:       e.cfg.RingCap,
		interfaces:    e.cfg.Interfaces,
		period:        e.cfg.Period,
		escalateAfter: e.cfg.EscalateAfter,
		seed:          e.cfg.Seed,
		offered:       e.offered,
		degraded:      e.auditOff.Load(),
	}
	if e.inline != nil {
		rep := e.inline.snapshot()
		d.flows = rep.flows
		d.lost = e.inline.lost.Load() + e.inheritedLost
		d.restarts = e.inline.restarts.Load() + e.inheritedRestarts
		d.reaps = e.inheritedReaps
	} else {
		e.Flush()
		chs := make([]chan snapReply, e.nshards)
		for i := range e.shards {
			ch := make(chan snapReply, 1)
			e.shards[i].Load().in <- shardMsg{snap: ch}
			chs[i] = ch
		}
		for i, ch := range chs {
			rep := <-ch
			if rep.err != nil {
				return rep.err
			}
			e.mu.Lock()
			e.lastSnap[i] = rep.flows
			e.mu.Unlock()
			d.flows = append(d.flows, rep.flows...)
		}
		for i := range e.shedBy {
			d.shed += e.shedBy[i]
			d.stalled += e.stallBy[i]
		}
		for i := range e.shards {
			sh := e.shards[i].Load()
			d.lost += sh.lost.Load()
			d.restarts += sh.restarts.Load()
		}
		e.mu.Lock()
		for _, z := range e.zombies {
			d.lost += z.lost.Load() + z.sent.Load() - z.accounted.Load()
			d.restarts += z.restarts.Load()
		}
		d.reaps = e.reaps
		e.mu.Unlock()
		d.shed += e.inheritedShed
		d.stalled += e.inheritedStalled
		d.lost += e.inheritedLost
		d.restarts += e.inheritedRestarts
		d.reaps += e.inheritedReaps
	}
	sort.Slice(d.flows, func(i, j int) bool {
		return bytes.Compare(d.flows[i].addr[:], d.flows[j].addr[:]) < 0
	})
	return encodeCheckpoint(w, d)
}

// Restore loads a checkpoint into a freshly built engine: it
// validates the configuration echo against e's own, inherits the
// counters, and installs each flow into the shard that owns it (any
// shard count — flow state is placement independent). The engine must
// not have ingested anything yet. The caller then replays the stream
// from checkpoint offset Offered().
func (e *Engine) Restore(r io.Reader) error {
	if e.offered != 0 || e.final != nil {
		return errors.New("stream: restore into a used engine")
	}
	d, err := decodeCheckpoint(r)
	if err != nil {
		return err
	}
	if d.w != e.cfg.W || d.ringCap != e.cfg.RingCap || d.interfaces != e.cfg.Interfaces ||
		d.period != e.cfg.Period || d.escalateAfter != e.cfg.EscalateAfter || d.seed != e.cfg.Seed {
		return fmt.Errorf("stream: checkpoint taken under different configuration "+
			"(ckpt w=%s ring=%d ifaces=%d period=%d escalate=%d seed=%#x; engine w=%s ring=%d ifaces=%d period=%d escalate=%d seed=%#x)",
			d.w, d.ringCap, d.interfaces, d.period, d.escalateAfter, d.seed,
			e.cfg.W, e.cfg.RingCap, e.cfg.Interfaces, e.cfg.Period, e.cfg.EscalateAfter, e.cfg.Seed)
	}
	e.offered = d.offered
	e.inheritedShed = d.shed
	e.inheritedStalled = d.stalled
	e.inheritedLost = d.lost
	e.inheritedRestarts = d.restarts
	e.inheritedReaps = d.reaps
	if d.degraded {
		e.auditOff.Store(true)
	}
	if e.inline != nil {
		return e.inline.install(d.flows)
	}
	groups := make([][]flowSnap, e.nshards)
	for _, s := range d.flows {
		i := e.shardIndex(s.addr)
		groups[i] = append(groups[i], s)
	}
	reqs := make([]installReq, e.nshards)
	for i := range e.shards {
		reqs[i] = installReq{flows: groups[i], done: make(chan error, 1)}
		e.shards[i].Load().in <- shardMsg{install: &reqs[i]}
	}
	var firstErr error
	for i := range reqs {
		if err := <-reqs[i].done; err != nil && firstErr == nil {
			firstErr = err
		}
		e.mu.Lock()
		e.lastSnap[i] = groups[i]
		e.mu.Unlock()
	}
	return firstErr
}

// --- binary encoding --------------------------------------------------------

// minFlowRecord is the encoded width of a flow with empty scheduler
// edges, quantile window and ring: the element width the flow count is
// bounded by, so a forged count cannot allocate beyond the input.
const minFlowRecord = 8 + 4*8 + 2*8 + 1 + 9*8 + 3*4 + trace.NumApps*8 + 2*4 + 2*8 + 3*4

func encodeCheckpoint(w io.Writer, d *ckptData) error {
	// Sized up front: append's growth on a multi-megabyte image would
	// copy it several times over. The fixed part (header, configuration,
	// counters, CRC) is 97 bytes.
	size := 128
	for i := range d.flows {
		f := &d.flows[i]
		size += minFlowRecord + 4*(len(f.sched.Edges)+len(f.sched.Window)) + (trace.PacketRecordLen+1)*len(f.ring)
	}
	le := binary.LittleEndian
	b := wire.AppendHeader(make([]byte, 0, size), ckptMagic, ckptVersion)
	b = le.AppendUint64(b, uint64(d.w))
	for _, v := range []int{d.ringCap, d.interfaces, d.period, d.escalateAfter} {
		b = le.AppendUint32(b, uint32(v))
	}
	b = le.AppendUint64(b, d.seed)
	for _, v := range []int64{d.offered, d.shed, d.stalled, d.lost, d.restarts, d.reaps} {
		b = le.AppendUint64(b, uint64(v))
	}
	b = append(b, boolByte(d.degraded))
	b = le.AppendUint32(b, uint32(len(d.flows)))
	var rec [trace.PacketRecordLen]byte
	for i := range d.flows {
		f := &d.flows[i]
		b = append(b, f.addr[:]...)
		b = append(b, 0, 0) // pad
		for _, v := range f.rng {
			b = le.AppendUint64(b, v)
		}
		b = le.AppendUint64(b, f.digest)
		b = le.AppendUint64(b, uint64(f.winStart))
		b = append(b, boolByte(f.started))
		for _, v := range []int64{f.winDown, f.packets, f.evicted, f.windows, f.classified,
			f.leakedWins, f.escalations, f.vmacErrors, f.leakStreak} {
			b = le.AppendUint64(b, uint64(v))
		}
		b = le.AppendUint32(b, uint32(f.ifaces))
		b = le.AppendUint32(b, uint32(f.granted))
		b = le.AppendUint32(b, uint32(len(f.predHist)))
		for _, v := range f.predHist {
			b = le.AppendUint64(b, uint64(v))
		}
		b = le.AppendUint32(b, uint32(f.sched.Interfaces))
		b = le.AppendUint32(b, uint32(f.sched.Period))
		b = le.AppendUint64(b, uint64(f.sched.Seen))
		b = le.AppendUint64(b, uint64(f.sched.Epochs))
		for _, vs := range [][]int{f.sched.Edges, f.sched.Window} {
			b = le.AppendUint32(b, uint32(len(vs)))
			for _, v := range vs {
				b = le.AppendUint32(b, uint32(v))
			}
		}
		b = le.AppendUint32(b, uint32(len(f.ring)))
		for _, p := range f.ring {
			trace.PutPacketRecord(rec[:], p)
			b = append(b, rec[:]...)
		}
		b = append(b, f.ifassign...)
	}
	_, err := w.Write(wire.AppendCRC(b, 0))
	return err
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// nonNeg reads an i64 that must not be negative.
func nonNeg(r *wire.Reader, what string) int64 {
	v := int64(r.U64())
	if v < 0 {
		r.Failf("negative %s %d", what, v)
	}
	return v
}

func decodeCheckpoint(src io.Reader) (*ckptData, error) {
	raw, err := io.ReadAll(src)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	body, err := wire.CheckCRC(raw, ErrBadCheckpoint)
	if err != nil {
		return nil, err
	}
	r := wire.NewReader(body, ErrBadCheckpoint)
	r.Header(ckptMagic, ckptVersion)
	d := &ckptData{}
	d.w = time.Duration(nonNeg(r, "window"))
	d.ringCap = int(r.U32())
	d.interfaces = int(r.U32())
	d.period = int(r.U32())
	d.escalateAfter = int(r.U32())
	if d.ringCap <= 0 || d.ringCap > 1<<24 {
		r.Failf("implausible ring capacity %d", d.ringCap)
	}
	if d.interfaces < 1 || d.interfaces > vmac.MaxInterfaces {
		r.Failf("interfaces %d out of [1, %d]", d.interfaces, vmac.MaxInterfaces)
	}
	if d.period <= 0 || d.period > 1<<24 {
		r.Failf("implausible period %d", d.period)
	}
	d.seed = r.U64()
	d.offered = nonNeg(r, "offered")
	d.shed = nonNeg(r, "shed")
	d.stalled = nonNeg(r, "stalled")
	d.lost = nonNeg(r, "lost")
	d.restarts = nonNeg(r, "restarts")
	d.reaps = nonNeg(r, "reaps")
	d.degraded = r.U8() != 0
	nFlows := r.Count("flow", 1<<20, minFlowRecord)
	d.flows = make([]flowSnap, 0, nFlows)
	var prev mac.Address
	for i := 0; i < nFlows && r.Err() == nil; i++ {
		var f flowSnap
		copy(f.addr[:], r.Take(6))
		r.Take(2) // pad
		if i > 0 && bytes.Compare(prev[:], f.addr[:]) >= 0 {
			r.Failf("flow %d address %s out of order", i, f.addr)
		}
		prev = f.addr
		for j := range f.rng {
			f.rng[j] = r.U64()
		}
		if f.rng[0]|f.rng[1]|f.rng[2]|f.rng[3] == 0 {
			r.Failf("flow %s has all-zero RNG state", f.addr)
		}
		f.digest = r.U64()
		f.winStart = time.Duration(r.U64())
		f.started = r.U8() != 0
		f.winDown = nonNeg(r, "winDown")
		f.packets = nonNeg(r, "packets")
		f.evicted = nonNeg(r, "evicted")
		f.windows = nonNeg(r, "windows")
		f.classified = nonNeg(r, "classified")
		f.leakedWins = nonNeg(r, "leaked")
		f.escalations = nonNeg(r, "escalations")
		f.vmacErrors = nonNeg(r, "vmacErrors")
		f.leakStreak = nonNeg(r, "leakStreak")
		f.ifaces = int(r.U32())
		f.granted = int(r.U32())
		if f.ifaces < 1 || f.ifaces > vmac.MaxInterfaces {
			r.Failf("flow %s interfaces %d out of [1, %d]", f.addr, f.ifaces, vmac.MaxInterfaces)
		}
		if f.granted < 0 || f.granted > vmac.MaxInterfaces {
			r.Failf("flow %s granted %d out of [0, %d]", f.addr, f.granted, vmac.MaxInterfaces)
		}
		if nPred := int(r.U32()); nPred != len(f.predHist) {
			r.Failf("flow %s has %d app buckets, want %d", f.addr, nPred, len(f.predHist))
		}
		for j := range f.predHist {
			f.predHist[j] = nonNeg(r, "pred")
		}
		f.sched.Interfaces = int(r.U32())
		f.sched.Period = int(r.U32())
		f.sched.Seen = int(nonNeg(r, "sched seen"))
		f.sched.Epochs = int(nonNeg(r, "sched epochs"))
		f.sched.Edges = make([]int, r.Count("edge", reshape.LMax, 4))
		for j := range f.sched.Edges {
			f.sched.Edges[j] = int(r.U32())
		}
		f.sched.Window = make([]int, r.Count("window sample", 1<<24, 4))
		for j := range f.sched.Window {
			f.sched.Window[j] = int(r.U32())
		}
		nRing := r.Count("ring packet", d.ringCap, trace.PacketRecordLen+1)
		if rec := r.Take(nRing * trace.PacketRecordLen); rec != nil {
			f.ring = make([]trace.Packet, nRing)
			for j := range f.ring {
				f.ring[j] = trace.PacketFromRecord(rec[j*trace.PacketRecordLen:])
			}
		}
		if asg := r.Take(nRing); asg != nil {
			f.ifassign = append([]uint8(nil), asg...)
			for j, v := range f.ifassign {
				if int(v) >= f.ifaces {
					r.Failf("flow %s slot %d assigned to interface %d of %d", f.addr, j, v, f.ifaces)
				}
			}
		}
		d.flows = append(d.flows, f)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return d, nil
}
