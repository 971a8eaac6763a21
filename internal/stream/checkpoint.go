package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
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

// flowSnap is one flow's serializable state: its plain values, and
// copies of what flowState holds by reference. Ring packets and
// interface assignments are aligned oldest-first.
type flowSnap struct {
	flowVals
	rng      [4]uint64
	sched    reshape.AdaptiveState
	ring     []trace.Packet
	ifassign []uint8
}

// snapFlow serializes f. The interface-assignment buffer is rotated
// into ring order by the runs closeWindow reads.
func snapFlow(f *flowState) flowSnap {
	n := f.ring.Len()
	_, ifs := f.runs()
	return flowSnap{
		flowVals: f.flowVals,
		rng:      f.rng.State(),
		sched:    f.sched.State(),
		ring:     f.ring.AppendTo(make([]trace.Packet, 0, n)),
		ifassign: append(append(make([]uint8, 0, n), ifs[0]...), ifs[1]...),
	}
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
		ring:     trace.NewRing(e.cfg.RingCap),
		ifbuf:    make([]uint8, e.cfg.RingCap),
		sched:    sched,
		flowVals: s.flowVals,
		client:   vmac.NewClient(s.addr),
		rng:      stats.NewRNG(0),
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
	faults   ShardStats // totals only; Shard is unused
	degraded bool

	flows []flowSnap
}

// Checkpoint snapshots every flow's defense state and the engine's
// cumulative counters to w. It runs a barrier: all buffered packets
// are flushed, then each shard serializes its flows at its queue's
// current frontier — the checkpoint boundary is exactly the set of
// packets Ingested before the call. The snapshot also becomes each
// shard's rollback point for panic recovery and watchdog reaps. The
// image does not depend on the shard count. The producer goroutine
// must call it; it cannot run concurrently with Ingest.
func (e *Engine) Checkpoint(w io.Writer) error {
	if e.final != nil {
		return errors.New("stream: checkpoint after drain")
	}
	e.Flush()
	if err := e.control(opSnap, nil); err != nil {
		return err
	}
	e.ckptFlows = e.ckptFlows[:0]
	for _, flows := range e.lastSnap {
		e.ckptFlows = append(e.ckptFlows, flows...)
	}
	slices.SortFunc(e.ckptFlows, func(a, b flowSnap) int { return bytes.Compare(a.addr[:], b.addr[:]) })
	d := &ckptData{
		w:             e.cfg.W,
		ringCap:       e.cfg.RingCap,
		interfaces:    e.cfg.Interfaces,
		period:        e.cfg.Period,
		escalateAfter: e.cfg.EscalateAfter,
		seed:          e.cfg.Seed,
		offered:       e.offered,
		faults:        e.faults(nil),
		degraded:      e.auditOff.Load(),
		flows:         e.ckptFlows,
	}
	// The image is encoded into the engine's buffer from the last
	// checkpoint: io.Writer implementations must not retain p, so the
	// buffer is free again once Write returns.
	e.ckpt = encodeCheckpoint(e.ckpt[:0], d)
	_, err := w.Write(e.ckpt)
	return err
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
	e.inherited = d.faults
	if d.degraded {
		e.auditOff.Store(true)
	}
	groups := make([][]flowSnap, len(e.shards))
	for _, s := range d.flows {
		i := e.shardIndex(s.addr)
		groups[i] = append(groups[i], s)
	}
	return e.control(opInstall, groups)
}

// --- binary encoding --------------------------------------------------------

// minFlowRecord is the encoded width of a flow with empty scheduler
// edges, quantile window and ring: the element width the flow count is
// bounded by, so a forged count cannot allocate beyond the input.
const minFlowRecord = 8 + 4*8 + 2*8 + 1 + 9*8 + 3*4 + trace.NumApps*8 + 2*4 + 2*8 + 3*4

// encodeCheckpoint appends d's checkpoint image to b and returns the
// extended slice.
func encodeCheckpoint(b []byte, d *ckptData) []byte {
	// Grown up front: append's growth on a multi-megabyte image would
	// copy it several times over. The fixed part (header, configuration,
	// counters, CRC) is 97 bytes.
	size := 128
	for i := range d.flows {
		f := &d.flows[i]
		size += minFlowRecord + 4*(len(f.sched.Edges)+len(f.sched.Window)) + (trace.PacketRecordLen+1)*len(f.ring)
	}
	le := binary.LittleEndian
	start := len(b)
	b = wire.AppendHeader(slices.Grow(b, size), ckptMagic, ckptVersion)
	b = le.AppendUint64(b, uint64(d.w))
	for _, v := range []int{d.ringCap, d.interfaces, d.period, d.escalateAfter} {
		b = le.AppendUint32(b, uint32(v))
	}
	b = le.AppendUint64(b, d.seed)
	for _, v := range []int64{d.offered, d.faults.Shed, d.faults.Stalled, d.faults.Lost, d.faults.Restarts, d.faults.Reaps} {
		b = le.AppendUint64(b, uint64(v))
	}
	b = append(b, boolByte(d.degraded))
	b = le.AppendUint32(b, uint32(len(d.flows)))
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
		for _, v := range []int64{int64(f.winDown), f.packets, f.evicted, f.windows, f.classified,
			f.leakedWins, f.escalations, f.vmacErrors, int64(f.leakStreak)} {
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
		// Records are written in place: PutPacketRecord sets every byte
		// of its 40, so nothing of a reused buffer's old image survives.
		n := len(b)
		b = b[:n+trace.PacketRecordLen*len(f.ring)]
		for _, p := range f.ring {
			trace.PutPacketRecord(b[n:n+trace.PacketRecordLen], p)
			n += trace.PacketRecordLen
		}
		b = append(b, f.ifassign...)
	}
	return wire.AppendCRC(b, start)
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
	if d.ringCap <= 0 || d.ringCap > MaxConfigValue {
		r.Failf("implausible ring capacity %d", d.ringCap)
	}
	if d.interfaces < 1 || d.interfaces > vmac.MaxInterfaces {
		r.Failf("interfaces %d out of [1, %d]", d.interfaces, vmac.MaxInterfaces)
	}
	if d.period <= 0 || d.period > MaxConfigValue {
		r.Failf("implausible period %d", d.period)
	}
	if d.escalateAfter > MaxConfigValue {
		r.Failf("implausible escalate-after %d", d.escalateAfter)
	}
	d.seed = r.U64()
	d.offered = nonNeg(r, "offered")
	d.faults.Shed = nonNeg(r, "shed")
	d.faults.Stalled = nonNeg(r, "stalled")
	d.faults.Lost = nonNeg(r, "lost")
	d.faults.Restarts = nonNeg(r, "restarts")
	d.faults.Reaps = nonNeg(r, "reaps")
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
		f.winDown = int(nonNeg(r, "winDown"))
		f.packets = nonNeg(r, "packets")
		f.evicted = nonNeg(r, "evicted")
		f.windows = nonNeg(r, "windows")
		f.classified = nonNeg(r, "classified")
		f.leakedWins = nonNeg(r, "leaked")
		f.escalations = nonNeg(r, "escalations")
		f.vmacErrors = nonNeg(r, "vmacErrors")
		f.leakStreak = int(nonNeg(r, "leakStreak"))
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
				if dir := f.ring[j].Dir; !dir.Valid() {
					r.Failf("flow %s ring packet %d has direction byte %d", f.addr, j, dir)
				}
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
