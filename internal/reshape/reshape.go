// Package reshape implements the paper's primary contribution
// (§III-C): traffic reshaping, the real-time scheduling of packets
// onto multiple virtual MAC interfaces so that each interface exposes
// a packet-feature distribution unlike the original flow's.
//
// The scheduler is a function F(s_k) → i ∈ [1, I] mapping each packet
// to a virtual interface. The package provides:
//
//   - the naive baselines Random Assignment (RA) and Round-Robin (RR);
//   - Orthogonal Reshaping (OR) in both variants the paper presents:
//     by packet-size range (Figure 4) and by size modulo (Figure 5);
//   - a Frequency Hopping (FH) time-slot partitioner, the paper's
//     third comparison scheme (VirtualWiFi channels 1/6/11 at 500 ms);
//   - the target-distribution machinery of the optimization problem
//     Eq. (1) and the orthogonality condition Eq. (2);
//   - parameter-selection helpers for L, I and φ (§III-C3).
package reshape

import (
	"fmt"
	"math"

	"trafficreshape/internal/stats"
	"trafficreshape/internal/trace"
)

// Scheduler maps packets to virtual interface indices in [0, I).
// Implementations must be deterministic given their construction
// parameters (the RA scheduler owns a seeded RNG).
type Scheduler interface {
	// Assign returns the interface index for packet p.
	// Implementations may use any observable property of the packet;
	// the paper's algorithms use only its size (OR) or arrival order
	// (RR) or nothing (RA).
	Assign(p trace.Packet) int
	// Interfaces returns I, the number of virtual interfaces.
	Interfaces() int
	// Name identifies the scheduler in reports.
	Name() string
}

// --- Random Assignment (RA) -------------------------------------------------

// Random schedules each packet onto a uniformly random interface:
// i = mod(random[1, I]) in the paper's notation.
type Random struct {
	i   int
	rng *stats.RNG
}

// NewRandom builds an RA scheduler over i interfaces.
func NewRandom(i int, seed uint64) *Random {
	return NewRandomFrom(i, stats.NewRNG(seed))
}

// NewRandomFrom builds an RA scheduler drawing from an explicit
// stream. The experiment engine hands each (application × strategy)
// shard its own stats.RNG.SplitAt stream, so RA partitions stay
// bit-identical between serial and sharded runs.
func NewRandomFrom(i int, r *stats.RNG) *Random {
	if i < 1 {
		panic("reshape: need at least one interface")
	}
	if r == nil {
		panic("reshape: nil RNG")
	}
	return &Random{i: i, rng: r}
}

// Assign implements Scheduler.
func (r *Random) Assign(trace.Packet) int { return r.rng.Intn(r.i) }

// Interfaces implements Scheduler.
func (r *Random) Interfaces() int { return r.i }

// Name implements Scheduler.
func (r *Random) Name() string { return "RA" }

// --- Round-Robin (RR) -------------------------------------------------------

// RoundRobin schedules packet s_k onto interface i = mod[k, I].
type RoundRobin struct {
	i int
	k int
}

// NewRoundRobin builds an RR scheduler over i interfaces.
func NewRoundRobin(i int) *RoundRobin {
	if i < 1 {
		panic("reshape: need at least one interface")
	}
	return &RoundRobin{i: i}
}

// Assign implements Scheduler.
func (r *RoundRobin) Assign(trace.Packet) int {
	idx := r.k % r.i
	r.k++
	return idx
}

// Interfaces implements Scheduler.
func (r *RoundRobin) Interfaces() int { return r.i }

// Name implements Scheduler.
func (r *RoundRobin) Name() string { return "RR" }

// --- Orthogonal Reshaping by size range (OR) --------------------------------

// Ranges are the upper edges ℓ_1 < ℓ_2 < … < ℓ_L of the L packet-size
// ranges {(0, ℓ_1], (ℓ_1, ℓ_2], …, (ℓ_{L-1}, ℓ_L]} (§III-C1).
type Ranges []int

// Validate checks the edges are positive and strictly ascending.
func (r Ranges) Validate() error {
	if len(r) == 0 {
		return fmt.Errorf("reshape: empty size ranges")
	}
	prev := 0
	for i, e := range r {
		if e <= prev {
			return fmt.Errorf("reshape: range edge %d (%d) not above previous (%d)", i, e, prev)
		}
		prev = e
	}
	return nil
}

// BinOf returns the range index j with size ∈ (ℓ_{j-1}, ℓ_j],
// clamping values above ℓ_L into the last range and values at or
// below zero into the first. The paper's fixed range counts are tiny
// (2–5), so this is a deliberate linear scan: for a handful of
// sequentially-read ints a scan beats sort.SearchInts' closure
// indirection, and it is small enough to inline into Measure. The
// schedulers, which route every packet, read per-size tables built
// from this rule instead (Orthogonal once, Adaptive per epoch).
func (r Ranges) BinOf(size int) int {
	for j, e := range r {
		if size <= e {
			return j
		}
	}
	return len(r) - 1
}

// PaperRanges3 are the default L=3 ranges the paper derives from the
// observation that packet sizes concentrate in [108, 232] and
// [1546, 1576] (§III-C3): (0,232], (232,1540], (1540,1576].
func PaperRanges3() Ranges { return Ranges{232, 1540, 1576} }

// PaperRanges2 are the L=2 ranges of the I=2 row of Table V:
// (0,1500], (1500,1576].
func PaperRanges2() Ranges { return Ranges{1500, 1576} }

// PaperRanges5 are the L=5 ranges of the I=5 row of Table V:
// (0,232], (232,500], (500,1000], (1000,1540], (1540,1576].
func PaperRanges5() Ranges { return Ranges{232, 500, 1000, 1540, 1576} }

// EqualRanges splits (0, max] into l equal ranges, as in the Figure 4
// example ((0,525], (525,1050], (1050,1576] for max 1576, l 3).
func EqualRanges(max, l int) Ranges {
	if l < 1 || max < l {
		panic("reshape: invalid equal range parameters")
	}
	out := make(Ranges, l)
	for j := 1; j <= l; j++ {
		out[j-1] = max * j / l
	}
	out[l-1] = max
	return out
}

// Orthogonal is the paper's OR scheduler in its range form: a hash
// from the packet's size range to a virtual interface, with the
// assignment chosen so per-interface target distributions are pairwise
// orthogonal. With L == I and the identity mapping this is exactly
// the Figure 4 configuration (φ¹=[1,0,0], φ²=[0,1,0], φ³=[0,0,1]).
type Orthogonal struct {
	ranges Ranges
	// ifaceOf[j] is the interface owning size range j. Orthogonality
	// (Eq. 2) holds because each range has exactly one owner.
	ifaceOf []int
	i       int
	// route[s] is ifaceOf[ranges.BinOf(s)] for every size s from 0 to
	// the top edge, filled once at construction: Assign reads one
	// entry instead of scanning the edges.
	route []int32
}

// maxOrthogonalEdge bounds an Orthogonal scheduler's top range edge,
// and with it the routing table (four bytes per size up to the edge).
// It sits far above any 802.11 frame.
const maxOrthogonalEdge = 1 << 16

// NewOrthogonal builds an OR scheduler with L = len(ranges) = I and
// range j owned by interface j.
func NewOrthogonal(ranges Ranges) (*Orthogonal, error) {
	ifaceOf := make([]int, len(ranges))
	for j := range ifaceOf {
		ifaceOf[j] = j
	}
	return NewOrthogonalMapped(ranges, ifaceOf, len(ranges))
}

// NewOrthogonalMapped builds an OR scheduler with an explicit
// range→interface ownership map, allowing L > I (several ranges may
// share an interface; orthogonality still holds because no range has
// two owners).
func NewOrthogonalMapped(ranges Ranges, ifaceOf []int, interfaces int) (*Orthogonal, error) {
	if err := ranges.Validate(); err != nil {
		return nil, err
	}
	if len(ifaceOf) != len(ranges) {
		return nil, fmt.Errorf("reshape: ownership map has %d entries for %d ranges", len(ifaceOf), len(ranges))
	}
	if interfaces < 1 {
		return nil, fmt.Errorf("reshape: need at least one interface")
	}
	for j, i := range ifaceOf {
		if i < 0 || i >= interfaces {
			return nil, fmt.Errorf("reshape: range %d mapped to invalid interface %d", j, i)
		}
	}
	top := ranges[len(ranges)-1]
	if top > maxOrthogonalEdge {
		return nil, fmt.Errorf("reshape: top range edge %d above %d", top, maxOrthogonalEdge)
	}
	route := make([]int32, top+1)
	s := 0
	for j, e := range ranges {
		for ; s <= e; s++ {
			route[s] = int32(ifaceOf[j])
		}
	}
	return &Orthogonal{
		ranges:  ranges,
		ifaceOf: append([]int(nil), ifaceOf...),
		i:       interfaces,
		route:   route,
	}, nil
}

// Assign implements Scheduler with one read of the routing table.
// Sizes above the top edge clamp to the top range's owner and negative
// sizes to the first range's, as BinOf clamps them.
func (o *Orthogonal) Assign(p trace.Packet) int {
	return int(o.route[min(max(int(p.Size), 0), len(o.route)-1)])
}

// Interfaces implements Scheduler.
func (o *Orthogonal) Interfaces() int { return o.i }

// Name implements Scheduler.
func (o *Orthogonal) Name() string { return "OR" }

// Targets returns the per-interface target distributions φ implied by
// the ownership map: φ^i_j = 1 iff interface i owns range j, the
// degenerate distributions that satisfy Eq. (2) by construction.
func (o *Orthogonal) Targets() []Distribution {
	out := make([]Distribution, o.i)
	for i := range out {
		out[i] = make(Distribution, len(o.ranges))
	}
	for j, i := range o.ifaceOf {
		out[i][j] = 1
	}
	// Normalize interfaces owning several ranges so each φ sums to 1.
	for i := range out {
		sum := 0.0
		for _, v := range out[i] {
			sum += v
		}
		if sum > 0 {
			for j := range out[i] {
				out[i][j] /= sum
			}
		}
	}
	return out
}

// --- Orthogonal Reshaping by size modulo (Figure 5) -------------------------

// Modulo is the paper's second OR example: packet s_k of size L(s_k)
// goes to interface i = mod[L(s_k), I]. Every interface then spans
// the full packet-size range, hiding that reshaping is in use
// (§III-C2), while the mapping is still a deterministic hash of size,
// hence orthogonal over the fine-grained (per-byte) partition.
type Modulo struct {
	i int
}

// NewModulo builds the modulo scheduler over i interfaces.
func NewModulo(i int) *Modulo {
	if i < 1 {
		panic("reshape: need at least one interface")
	}
	return &Modulo{i: i}
}

// Assign implements Scheduler.
func (m *Modulo) Assign(p trace.Packet) int { return int(p.Size) % m.i }

// Interfaces implements Scheduler.
func (m *Modulo) Interfaces() int { return m.i }

// Name implements Scheduler.
func (m *Modulo) Name() string { return "OR-mod" }

// --- Frequency Hopping (FH) -------------------------------------------------

// FrequencyHopping models the paper's FH comparison scheme: the
// client hops across channels (1, 6, 11 in the paper, 500 ms dwell),
// so traffic is partitioned by *time slot* rather than by a per-packet
// decision. The "interface" index is the channel the packet was sent
// on; an eavesdropper camped on one channel sees one partition.
type FrequencyHopping struct {
	channels []int
	dwell    float64 // seconds
}

// PaperFH returns the configuration of the paper's footnote: channels
// 1, 6, 11 with 500 ms dwell.
func PaperFH() *FrequencyHopping {
	return NewFrequencyHopping([]int{1, 6, 11}, 0.5)
}

// NewFrequencyHopping builds an FH partitioner.
func NewFrequencyHopping(channels []int, dwellSeconds float64) *FrequencyHopping {
	if len(channels) == 0 || dwellSeconds <= 0 {
		panic("reshape: FH needs channels and a positive dwell")
	}
	return &FrequencyHopping{channels: append([]int(nil), channels...), dwell: dwellSeconds}
}

// Assign implements Scheduler: the slot index at the packet's time.
func (f *FrequencyHopping) Assign(p trace.Packet) int {
	slot := int(p.Time.Seconds() / f.dwell)
	return slot % len(f.channels)
}

// Interfaces implements Scheduler.
func (f *FrequencyHopping) Interfaces() int { return len(f.channels) }

// Name implements Scheduler.
func (f *FrequencyHopping) Name() string { return "FH" }

// --- Applying a scheduler to a trace ----------------------------------------

// Apply partitions tr into per-interface sub-flows S_i. The union of
// the sub-flows is exactly S and they are pairwise disjoint — the
// partition property ∪_i S_i = S, S_i ∩ S_j = ∅ of §III-C1. Packet
// contents (time, size, direction) are never modified: reshaping adds
// no noise traffic.
//
// Apply runs in two passes so each packet is copied once: Buffer.Assign
// records every packet's interface, and Buffer.Scatter carves the
// sub-flows from that index.
//
// Apply is new(Buffer).Apply: the sub-flows own fresh memory.
func Apply(s Scheduler, tr *trace.Trace) []*trace.Trace {
	return new(Buffer).Apply(s, tr)
}

// Buffer is Apply's reusable scratch: the interface index, the
// per-interface offsets, the packet backing array, the sub-flow
// headers and the result slice. A caller that partitions in a loop
// keeps one Buffer and, once its arrays have grown to the longest
// trace, partitions without touching the heap. The zero value is
// ready to use; a Buffer is not safe for concurrent use.
type Buffer struct {
	iface   []int32
	ends    []int
	packets []trace.Packet
	subs    []trace.Trace
	out     []*trace.Trace
}

// Apply partitions tr exactly as the package-level Apply does, into
// the buffer's memory: Assign, then Scatter over the index. The
// returned sub-flows and slice alias the buffer: they stay valid only
// until the next call on b.
func (b *Buffer) Apply(s Scheduler, tr *trace.Trace) []*trace.Trace {
	return b.Scatter(tr.Packets, b.Assign(s, tr), s.Interfaces())
}

// Assign calls s.Assign exactly once per packet of tr, in trace order
// — the call sequence stateful schedulers (RA's stream, RR's counter,
// Adaptive's epochs) depend on — and returns each packet's interface.
// A caller that needs only the sub-flows' features, not the sub-flows,
// stops here. The index aliases the buffer until its next Assign or
// Apply.
func (b *Buffer) Assign(s Scheduler, tr *trace.Trace) []int32 {
	iface := resize(b.iface, len(tr.Packets))
	for k, p := range tr.Packets {
		iface[k] = int32(s.Assign(p))
	}
	b.iface = iface
	return iface
}

// Scatter materialises a group index: pkts[k] goes to sub-flow
// group[k], with 0 <= group[k] < groups, and each sub-flow keeps its
// packets in pkts order. It counts per group, then carves every
// sub-flow from one exact-size backing array and copies each packet
// once. Each sub-flow's capacity is capped at its own length, so a
// later Append reallocates instead of overwriting the next group's
// packets, and in-place edits (OR+morph's Morpher.ApplyInPlace) stay
// inside the sub-flow. The sub-flows are laid out in group order, so
// Packets returns them back to back. pkts must not alias the buffer's
// own backing array; the result aliases the buffer until its next
// Scatter or Apply.
func (b *Buffer) Scatter(pkts []trace.Packet, group []int32, groups int) []*trace.Trace {
	group = group[:len(pkts)]
	// ends[i] counts group i's packets, then holds its start offset in
	// the backing array, and after the scatter its end.
	ends := resize(b.ends, groups)
	clear(ends)
	for _, g := range group {
		ends[g]++
	}
	off := 0
	for i, c := range ends {
		ends[i] = off
		off += c
	}
	backing := resize(b.packets, len(pkts))
	for k, g := range group {
		backing[ends[g]] = pkts[k]
		ends[g]++
	}
	subs := resize(b.subs, len(ends))
	out := resize(b.out, len(ends))
	start := 0
	for i, end := range ends {
		subs[i].Packets = backing[start:end:end]
		out[i] = &subs[i]
		start = end
	}
	b.ends, b.packets, b.subs, b.out = ends, backing, subs, out
	return out
}

// Packets returns the backing array of the last Scatter or Apply:
// every sub-flow's packets, sub-flow after sub-flow. It aliases the
// sub-flows, so an in-place edit of one shows in the other.
func (b *Buffer) Packets() []trace.Packet { return b.packets }

// resize returns xs at length n, reusing its array when it is large
// enough and allocating exactly n elements otherwise. Reused elements
// keep their old values.
func resize[T any](xs []T, n int) []T {
	if cap(xs) < n {
		return make([]T, n)
	}
	return xs[:n]
}

// --- Target distributions and the Eq. (1) objective -------------------------

// Distribution is a probability vector over the L packet-size ranges:
// the paper's P (original), p^i (measured on interface i) or φ^i
// (target for interface i).
type Distribution []float64

// Sum returns Σ_j d_j.
func (d Distribution) Sum() float64 {
	s := 0.0
	for _, v := range d {
		s += v
	}
	return s
}

// Dot returns the inner product with e (Eq. 2's left-hand side).
func (d Distribution) Dot(e Distribution) float64 {
	if len(d) != len(e) {
		panic("reshape: dot of unequal-length distributions")
	}
	s := 0.0
	for j := range d {
		s += d[j] * e[j]
	}
	return s
}

// IsOrthogonal reports whether d·e == 0 within tolerance.
func (d Distribution) IsOrthogonal(e Distribution) bool {
	return math.Abs(d.Dot(e)) < 1e-12
}

// AllOrthogonal checks Eq. (2) over every pair of targets.
func AllOrthogonal(targets []Distribution) bool {
	for a := 0; a < len(targets); a++ {
		for b := a + 1; b < len(targets); b++ {
			if !targets[a].IsOrthogonal(targets[b]) {
				return false
			}
		}
	}
	return true
}

// Measure computes the empirical size-range distribution p of a
// trace over the given ranges.
func Measure(tr *trace.Trace, ranges Ranges) Distribution {
	counts := make([]int, len(ranges))
	for _, p := range tr.Packets {
		counts[ranges.BinOf(int(p.Size))]++
	}
	d := make(Distribution, len(ranges))
	if tr.Len() == 0 {
		return d
	}
	for j, c := range counts {
		d[j] = float64(c) / float64(tr.Len())
	}
	return d
}

// Objective evaluates the paper's Eq. (1) scheduling objective,
// Σ_i sqrt(Σ_j |φ^i_j − p^i_j|²), for measured per-interface
// distributions against their targets. Lower is better; OR achieves
// zero whenever every owned range is non-empty, which is why its
// online optimization needs no knowledge of future traffic (§III-C2).
func Objective(targets, measured []Distribution) float64 {
	if len(targets) != len(measured) {
		panic("reshape: objective needs one measurement per target")
	}
	total := 0.0
	for i := range targets {
		if len(targets[i]) != len(measured[i]) {
			panic("reshape: distribution length mismatch")
		}
		ss := 0.0
		for j := range targets[i] {
			d := targets[i][j] - measured[i][j]
			ss += d * d
		}
		total += math.Sqrt(ss)
	}
	return total
}

// --- Parameter selection (§III-C3) ------------------------------------------

// PrivacyEntropy returns the paper's privacy entropy H = log2(N) for
// a WLAN exposing n MAC addresses.
func PrivacyEntropy(n int) float64 {
	if n <= 0 {
		return 0
	}
	return math.Log2(float64(n))
}

// SelectRanges picks L size-range edges for a target interface count,
// following the paper's defaults: the observed bimodal concentration
// for L=3, Table V's configurations for L=2 and L=5, and equal splits
// otherwise.
func SelectRanges(l int) (Ranges, error) {
	switch {
	case l < 2:
		return nil, fmt.Errorf("reshape: need at least 2 ranges, got %d", l)
	case l == 2:
		return PaperRanges2(), nil
	case l == 3:
		return PaperRanges3(), nil
	case l == 5:
		return PaperRanges5(), nil
	default:
		return EqualRanges(1576, l), nil
	}
}

// Recommended returns the paper's recommended configuration: I = 3
// interfaces with the default L = 3 ranges ("Generally, I = 3 is
// enough for OR to perform well", §III-C3).
func Recommended() *Orthogonal {
	o, err := NewOrthogonal(PaperRanges3())
	if err != nil {
		panic(err) // static configuration cannot fail
	}
	return o
}
