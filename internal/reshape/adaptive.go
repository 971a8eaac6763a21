package reshape

import (
	"fmt"

	"trafficreshape/internal/trace"
)

// LMax is ℓ_max, the largest MAC-layer packet size the paper's size
// ranges cover (§III-C3): every range edge lives in (0, LMax], and
// BinOf clamps oversized packets into the top range.
const LMax = 1576

// Adaptive is the dynamic parameter selection sketched in §III-C3:
// "parameters L, I and φ need to be tuned dynamically for different
// applications" and "I can be adjusted dynamically according to the
// privacy requirement and the resource availability".
//
// Fixed ranges can starve interfaces when an application's sizes all
// land in one range (e.g. a pure bulk download never populates the
// small-packet interface, Table I row "do."). Adaptive re-derives the
// range edges every Period packets from the empirical quantiles of
// the recent size distribution, so every interface carries roughly
// 1/I of the traffic regardless of the application. Ownership is
// still exclusive per (current) range, so each epoch's targets remain
// orthogonal in the Eq. (2) sense.
//
// The trade-off: edges now depend on the observed traffic, so an
// adversary watching one interface sees a (slowly) drifting slice of
// the size distribution rather than a fixed band. Epoch boundaries
// are the only state the two endpoints must agree on; in the protocol
// this rides on the same encrypted configuration channel as the
// initial handshake.
//
// Structural invariant: the scheduler always holds exactly i edges,
// strictly ascending within (0, LMax] — rederive rewrites them in
// place and can produce nothing else, so Assign needs no defensive
// clamp and Edges() passes Ranges.Validate after every epoch. All
// steady-state work (Assign, rederive) reuses preallocated scratch
// and performs zero heap allocations, which is what lets the
// streaming daemon run one Adaptive per flow across millions of
// flows.
//
// Assign routes a packet with one table read: bin maps every size in
// [0, LMax] to its range, refilled whenever the edges change, so the
// per-packet cost does not grow with the interface count the way
// BinOf's edge scan does. Like counts, the table is derived data and
// stays out of AdaptiveState.
type Adaptive struct {
	i      int
	period int
	window []int   // recent packet sizes, bounded by period
	counts []int32 // rederive scratch: size histogram, one bucket per size in [0, LMax]
	// blocks is rederive scratch too: counts summed over each run of
	// countBlock sizes, so the quantile walk skips empty runs whole.
	blocks [(LMax + countBlock) / countBlock]int32
	bin    []uint16 // bin[s] == edges.BinOf(s) for s in [0, LMax]; uint16 since i may reach LMax
	edges  Ranges
	seen   int
	epochs int
}

// countBlock is the number of histogram buckets one blocks entry sums.
const countBlock = 64

// NewAdaptive builds an adaptive scheduler over i interfaces that
// re-derives its ranges every period packets (period >= i). i is
// bounded by LMax: with one strictly ascending integer edge per
// interface inside (0, LMax], more interfaces than sizes cannot be
// partitioned.
func NewAdaptive(i, period int) *Adaptive {
	if i < 1 {
		panic("reshape: need at least one interface")
	}
	if i > LMax {
		panic("reshape: more interfaces than distinct packet sizes in (0, ℓ_max]")
	}
	if period < i {
		panic("reshape: adaptation period must be at least the interface count")
	}
	edges := make(Ranges, i)
	if i == 1 {
		edges[0] = LMax
	} else {
		initial, err := SelectRanges(i)
		if err != nil {
			panic(err) // unreachable: i >= 2
		}
		copy(edges, initial)
	}
	a := &Adaptive{
		i:      i,
		period: period,
		window: make([]int, 0, period),
		counts: make([]int32, LMax+1),
		bin:    make([]uint16, LMax+1),
		edges:  edges,
	}
	a.fillBins()
	return a
}

// fillBins rewrites the routing table from the current edges. Sizes up
// to the first edge go to range 0 and sizes above the last edge to the
// top range, as BinOf clamps them.
func (a *Adaptive) fillBins() {
	s := 0
	for j, e := range a.edges {
		for ; s <= e; s++ {
			a.bin[s] = uint16(j)
		}
	}
	for ; s <= LMax; s++ {
		a.bin[s] = uint16(len(a.edges) - 1)
	}
}

// Assign implements Scheduler. The current epoch's edges route the
// packet through the bin table; the packet's size feeds the next
// epoch's quantiles.
func (a *Adaptive) Assign(p trace.Packet) int {
	s := int(p.Size)
	idx := a.binOf(s)
	a.window = append(a.window, s)
	a.seen++
	if len(a.window) >= a.period {
		a.rederive()
		a.window = a.window[:0]
	}
	return idx
}

// binOf is the table's answer to edges.BinOf(size). It clamps size
// into [0, LMax] as the rederive histogram does, which leaves BinOf's
// answer unchanged: sizes up to the first edge go to range 0, sizes
// above the top edge to the top range.
func (a *Adaptive) binOf(size int) int { return int(a.bin[min(max(size, 0), LMax)]) }

// rederive sets the range edges to the empirical i-quantiles of the
// last window, keeping them strictly ascending and capped at ℓ_max:
// the top edge is always LMax, and lower edges are clamped below it.
//
// When the quantiles collapse — all sizes equal, or concentrated at
// or above ℓ_max — the edges degrade to adjacent width-one bands
// directly below LMax. Assignment stays valid and lossless (BinOf
// clamps oversized packets into the top range); the traffic simply
// concentrates on one interface, which is inherent to any
// size-deterministic partition of a point mass (see
// TestAdaptiveCannotBalancePointMass).
// Quantiles are read off a counting sort rather than a comparison
// sort: sizes are bounded by ℓ_max (BinOf clamps anything larger into
// the top range, and the histogram clamps identically), so one
// histogram fill plus one bucket walk replaces an O(n log n) sort.
// Profiling showed the periodic sort was ~30% of the streaming
// engine's per-packet budget; the histogram is a few ns amortized.
// Oversized quantiles land in the LMax bucket, which yields the same
// final edges the raw-value sort would: every quantile at or above
// ℓ_max collapses through the backward strict-ascent walk below.
func (a *Adaptive) rederive() {
	a.epochs++
	for _, s := range a.window {
		s = min(max(s, 0), LMax)
		a.counts[s]++
		a.blocks[s/countBlock]++
	}
	// Walk the occupied buckets once, reading quantiles and re-zeroing
	// in the same pass so the histogram is clean for the next epoch
	// without a full clear.
	n := len(a.window)
	prev := 0
	k := 1
	target := n * k / a.i // index into the (virtual) sorted window
	cum := 0
	for b := range a.blocks {
		if a.blocks[b] == 0 {
			continue
		}
		a.blocks[b] = 0
		for v := b * countBlock; v < min((b+1)*countBlock, LMax+1); v++ {
			c := int(a.counts[v])
			if c == 0 {
				continue
			}
			a.counts[v] = 0
			cum += c
			for k < a.i && cum > target { // sorted[target] == v
				q := v
				if q <= prev {
					q = prev + 1
				}
				a.edges[k-1] = q
				prev = q
				k++
				if k < a.i {
					target = n * k / a.i
				}
			}
		}
	}
	// The final edge is ℓ_max by definition; walking back down
	// re-establishes strict ascent when quantiles ran into the cap.
	// i <= LMax guarantees the walk bottoms out above zero.
	a.edges[a.i-1] = LMax
	for k := a.i - 2; k >= 0; k-- {
		if a.edges[k] >= a.edges[k+1] {
			a.edges[k] = a.edges[k+1] - 1
		}
	}
	a.fillBins()
}

// Interfaces implements Scheduler.
func (a *Adaptive) Interfaces() int { return a.i }

// Name implements Scheduler.
func (a *Adaptive) Name() string { return "OR-adaptive" }

// Epochs returns how many times the ranges have been re-derived,
// surfaced in the daemon's per-flow metrics so operators can see
// adaptation actually happening on live flows.
func (a *Adaptive) Epochs() int { return a.epochs }

// AdaptiveState is the serializable snapshot of an Adaptive scheduler:
// everything a restored scheduler needs to continue the exact decision
// sequence the original would have produced. The counting-sort scratch
// is excluded — it is all-zero between Assign calls by construction —
// and so is the bin table, which the edges determine.
type AdaptiveState struct {
	Interfaces int
	Period     int
	Edges      []int // current epoch's range edges, exactly Interfaces entries
	Window     []int // pending sizes feeding the next rederive, < Period entries
	Seen       int
	Epochs     int
}

// State snapshots the scheduler. The returned slices are copies; the
// snapshot stays valid however the scheduler advances afterwards.
func (a *Adaptive) State() AdaptiveState {
	return AdaptiveState{
		Interfaces: a.i,
		Period:     a.period,
		Edges:      append([]int(nil), a.edges...),
		Window:     append([]int(nil), a.window...),
		Seen:       a.seen,
		Epochs:     a.epochs,
	}
}

// RestoreAdaptive rebuilds a scheduler from a snapshot, validating the
// structural invariant (exactly Interfaces edges, strictly ascending
// within (0, ℓ_max]) so a corrupted or forged checkpoint cannot smuggle
// in state that Assign's invariant-free hot path would trip over.
func RestoreAdaptive(st AdaptiveState) (*Adaptive, error) {
	if st.Interfaces < 1 || st.Interfaces > LMax {
		return nil, fmt.Errorf("reshape: restore: interfaces %d out of [1, %d]", st.Interfaces, LMax)
	}
	if st.Period < st.Interfaces {
		return nil, fmt.Errorf("reshape: restore: period %d below interface count %d", st.Period, st.Interfaces)
	}
	if len(st.Edges) != st.Interfaces {
		return nil, fmt.Errorf("reshape: restore: %d edges for %d interfaces", len(st.Edges), st.Interfaces)
	}
	if err := Ranges(st.Edges).Validate(); err != nil {
		return nil, fmt.Errorf("reshape: restore: %w", err)
	}
	if top := st.Edges[len(st.Edges)-1]; top > LMax {
		return nil, fmt.Errorf("reshape: restore: top edge %d above ℓ_max %d", top, LMax)
	}
	if len(st.Window) >= st.Period {
		return nil, fmt.Errorf("reshape: restore: pending window %d not below period %d", len(st.Window), st.Period)
	}
	if st.Seen < 0 || st.Epochs < 0 {
		return nil, fmt.Errorf("reshape: restore: negative counters (seen=%d epochs=%d)", st.Seen, st.Epochs)
	}
	a := &Adaptive{
		i:      st.Interfaces,
		period: st.Period,
		window: make([]int, len(st.Window), st.Period),
		counts: make([]int32, LMax+1),
		bin:    make([]uint16, LMax+1),
		edges:  make(Ranges, st.Interfaces),
		seen:   st.Seen,
		epochs: st.Epochs,
	}
	copy(a.window, st.Window)
	copy(a.edges, st.Edges)
	a.fillBins()
	return a, nil
}
