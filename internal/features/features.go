// Package features turns eavesdropping windows into the numeric
// feature vectors the traffic-analysis classifier consumes. The
// feature list follows §IV-C of the paper exactly: number of packets,
// max/min/mean/standard deviation of packet size, and mean packet
// interarrival time — each computed separately for downlink and
// uplink.
package features

import (
	"math"
	"time"

	"trafficreshape/internal/trace"
	"trafficreshape/internal/vmac"
)

// Dim is the dimensionality of a feature vector: six per direction.
const Dim = 12

// Vector is one window's features: the downlink block (count, mean,
// std, max, min and mean gap), then the uplink block in the same
// order.
type Vector [Dim]float64

// Example pairs a feature vector with its ground-truth label for
// supervised training and accuracy scoring.
type Example struct {
	X Vector
	Y trace.App
}

// Extract computes the feature vector of one window. Counts are
// log1p-compressed: per-application packet rates span three orders of
// magnitude (chatting ~1/s vs downloading ~435/s), and raw counts
// would drown every other feature after standardization.
// Idle gaps longer than the window are impossible, so no further gap
// filtering is needed here; trace-level filtering (§IV-B) happens
// before windowing.
func Extract(w trace.Window) Vector {
	// Two passes over the window (sum, then squared deviations) keep
	// the arithmetic — and therefore the resulting bits — identical to
	// the slice-based stats.Describe formulation while allocating
	// nothing.
	var acc dirAccs
	for _, p := range w.Packets {
		acc[dirOf(p.Dir)].add(float64(p.Size), p.Time)
	}
	acc.setMeans()
	for _, p := range w.Packets {
		acc[dirOf(p.Dir)].addDeviation(float64(p.Size))
	}
	return acc.vector()
}

// MaxGroups bounds the groups ExtractGroups splits a window into: one
// per virtual interface a flow can hold.
const MaxGroups = vmac.MaxInterfaces

// Groups is ExtractGroups' result: the whole window's vector, and per
// group its vector and downlink packet count. Entries at or past the
// group count passed to ExtractGroups are zero.
type Groups struct {
	Whole Vector
	Sub   [MaxGroups]Vector
	Down  [MaxGroups]int
}

// ExtractGroups computes in two passes what Extract computes for a
// window and for each of its sub-windows: the window is pkts[0]
// followed by pkts[1], in arrival order (a wrapped ring's older and
// newer runs), and group[s][i] < groups <= MaxGroups names the
// sub-window of pkts[s][i]. Every accumulator adds its packets in
// arrival order, as Extract does, so each vector is bit-identical to
// Extract on the materialised sub-window, and the whole-window vector
// to Extract on the concatenation. The accumulators live on the stack;
// nothing is allocated.
func ExtractGroups(out *Groups, groups int, pkts [2][]trace.Packet, group [2][]uint8) {
	var whole dirAccs
	var sub [MaxGroups]dirAccs
	for s := range pkts {
		g := group[s][:len(pkts[s])]
		for i, p := range pkts[s] {
			d, size := dirOf(p.Dir), float64(p.Size)
			whole[d].add(size, p.Time)
			sub[g[i]][d].add(size, p.Time)
		}
	}
	whole.setMeans()
	for k := 0; k < groups; k++ {
		sub[k].setMeans()
	}
	for s := range pkts {
		g := group[s][:len(pkts[s])]
		for i, p := range pkts[s] {
			d, size := dirOf(p.Dir), float64(p.Size)
			whole[d].addDeviation(size)
			sub[g[i]][d].addDeviation(size)
		}
	}
	*out = Groups{Whole: whole.vector()}
	for k := 0; k < groups; k++ {
		out.Sub[k], out.Down[k] = sub[k].vector(), sub[k][0].n
	}
}

// GroupWindows is AppendGroupWindows' scratch. The zero value is ready
// to use; once its arrays have grown to a trace and its window count,
// AppendGroupWindows allocates nothing. It is not safe for concurrent
// use.
type GroupWindows struct {
	slot  []pktSlot // per packet: its window and direction, and its size
	accs  []dirAccs // per window, in the order windows open
	owner []int32   // per window: its group
	// Per group: the current window (-1 before the group's first
	// packet) and its start.
	tail  []int32
	start []time.Duration
}

// pktSlot is what the second pass of AppendGroupWindows reads of a
// packet: its window's accumulator index shifted left by one, or'd
// with its direction's, and its size. Eight bytes instead of the
// packet's 32 keep the pass in cache.
type pktSlot struct {
	acc, size int32
}

// AppendGroupWindows appends to dst the feature vector of every
// qualifying eavesdropping window of every group, without building
// the groups: pkts[i] belongs to group group[i] < groups. Groups are
// emitted in order's order (a group missing from order is skipped),
// each group's windows in time order. The vectors are bit-identical to
// materialising each group's packets in pkts order and running
// AppendWindowsOf and Extract on it: each group is windowed from its
// own first packet, windows that would hold no packet are skipped as
// trace.Trace.AppendWindows skips them, and a window qualifies on its
// downlink count (WindowQualifies). Only each group's packets need be
// in time order, not pkts as a whole, and pkts must open fewer than
// 2^30 windows, which a trace of fewer than 2^30 packets always does.
//
// The first pass opens windows and fills their accumulators, recording
// each packet's window; the second adds the squared deviations. Every
// accumulator adds its packets in group order, as Extract does.
func AppendGroupWindows(dst []Vector, sc *GroupWindows, pkts []trace.Packet, group []int32, groups int, order []int, w time.Duration) []Vector {
	if w <= 0 {
		panic("features: window duration must be positive")
	}
	group = group[:len(pkts)]
	slot := resizeScratch(sc.slot, len(pkts))
	tail := resizeScratch(sc.tail, groups)
	start := resizeScratch(sc.start, groups)
	for g := range tail {
		tail[g] = -1
	}
	accs, owner := sc.accs[:0], sc.owner[:0]
	for i, p := range pkts {
		g := group[i]
		s := tail[g]
		if s < 0 || p.Time-start[g] >= w {
			// Open the group's next window: the one holding p. Times
			// are compared by their distance from the window start, as
			// trace.Trace.AppendWindows compares them.
			if s < 0 {
				start[g] = p.Time
			} else {
				start[g] += (p.Time - start[g]) / w * w
			}
			s = int32(len(accs))
			accs = append(accs, dirAccs{})
			owner = append(owner, g)
			tail[g] = s
		}
		d := dirOf(p.Dir)
		slot[i] = pktSlot{acc: s<<1 | int32(d), size: p.Size}
		accs[s][d].add(float64(p.Size), p.Time)
	}
	for s := range accs {
		accs[s].setMeans()
	}
	for _, ps := range slot {
		accs[ps.acc>>1][ps.acc&1].addDeviation(float64(ps.size))
	}
	// A group's windows open in time order, so each scan of the
	// windows meets its group's in time order.
	for _, g := range order {
		for s, o := range owner {
			if o == int32(g) && WindowQualifies(accs[s][0].n, w) {
				dst = append(dst, accs[s].vector())
			}
		}
	}
	sc.slot, sc.accs, sc.owner, sc.tail, sc.start = slot, accs, owner, tail, start
	return dst
}

// resizeScratch returns xs at length n, reusing its array when it is
// large enough. Reused elements keep their old values.
func resizeScratch[T any](xs []T, n int) []T {
	if cap(xs) < n {
		return make([]T, n)
	}
	return xs[:n]
}

// dirOf indexes a direction's accumulator: 0 downlink, 1 uplink.
func dirOf(dir trace.Direction) int {
	if dir == trace.Uplink {
		return 1
	}
	return 0
}

// dirAcc accumulates one direction of a window, packet by packet in
// arrival order: count, sum, extremes and first and last timestamps in
// the first pass, squared deviations from the mean in the second.
type dirAcc struct {
	n           int
	sum, mean   float64
	min, max    float64
	ss          float64
	first, last time.Duration
}

// dirAccs are a window's accumulators, indexed by dirOf.
type dirAccs [2]dirAcc

func (a *dirAcc) add(s float64, t time.Duration) {
	if a.n == 0 {
		a.min, a.max = s, s
		a.first = t
	} else {
		if s < a.min {
			a.min = s
		}
		if s > a.max {
			a.max = s
		}
	}
	a.sum += s
	a.last = t
	a.n++
}

func (a *dirAcc) addDeviation(s float64) {
	diff := s - a.mean
	a.ss += diff * diff
}

// setMeans ends the first pass.
func (acc *dirAccs) setMeans() {
	for d := range acc {
		if acc[d].n > 0 {
			acc[d].mean = acc[d].sum / float64(acc[d].n)
		}
	}
}

// vector turns the finished accumulators into the feature vector: the
// one place the feature formulas live.
func (acc *dirAccs) vector() Vector {
	var v Vector
	for d := range acc {
		a := &acc[d]
		if a.n == 0 {
			continue // all-zero block encodes "direction absent"
		}
		off := 6 * d
		v[off+0] = math.Log1p(float64(a.n))
		v[off+1] = a.mean
		v[off+2] = math.Sqrt(a.ss / float64(a.n))
		v[off+3] = a.max
		v[off+4] = a.min
		if a.n >= 2 {
			v[off+5] = (a.last - a.first).Seconds() / float64(a.n-1)
		}
	}
	return v
}

// Scaler standardizes features to zero mean and unit variance, fit on
// the training set only (the attacker must not peek at test windows
// when fitting preprocessing).
type Scaler struct {
	Mean [Dim]float64
	Std  [Dim]float64
}

// FitScaler learns per-feature standardization parameters.
func FitScaler(examples []Example) *Scaler {
	s := &Scaler{}
	if len(examples) == 0 {
		for i := range s.Std {
			s.Std[i] = 1
		}
		return s
	}
	n := float64(len(examples))
	for _, e := range examples {
		for i, x := range e.X {
			s.Mean[i] += x
		}
	}
	for i := range s.Mean {
		s.Mean[i] /= n
	}
	for _, e := range examples {
		for i, x := range e.X {
			d := x - s.Mean[i]
			s.Std[i] += d * d
		}
	}
	for i := range s.Std {
		s.Std[i] = math.Sqrt(s.Std[i] / n)
		if s.Std[i] < 1e-9 {
			s.Std[i] = 1 // constant feature: leave centered at zero
		}
	}
	return s
}

// Apply standardizes one vector.
func (s *Scaler) Apply(v Vector) Vector {
	var out Vector
	for i := range v {
		out[i] = (v[i] - s.Mean[i]) / s.Std[i]
	}
	return out
}

// DirectionAbsent reports whether the vector's downlink (dir 0) or
// uplink (dir 1) block is entirely zero — Extract's encoding for "no
// packets observed in this direction".
func DirectionAbsent(v Vector, uplink bool) bool {
	off := 0
	if uplink {
		off = 6
	}
	for i := off; i < off+6; i++ {
		if v[i] != 0 {
			return false
		}
	}
	return true
}

// ApplyImputed standardizes v, replacing an absent direction's block
// with the training mean (z = 0) instead of the raw zeros. A flow with
// no uplink at all — e.g. the large-packet virtual interface of a
// reshaped download, whose TCP ACKs all live on another interface —
// would otherwise sit at an extreme corner of feature space that no
// training class occupies, and the classification would be decided by
// which class's boundary happens to extend furthest rather than by
// the informative (present) features. Mean-imputation makes the
// missing block neutral, which is how the paper's classifier evidently
// behaved (reshaped downloads still classified as downloading from
// downlink features alone, Table II).
func (s *Scaler) ApplyImputed(v Vector) Vector {
	out := s.Apply(v)
	if DirectionAbsent(v, false) {
		for i := 0; i < 6; i++ {
			out[i] = 0
		}
	}
	if DirectionAbsent(v, true) {
		for i := 6; i < Dim; i++ {
			out[i] = 0
		}
	}
	return out
}

// ApplyAll standardizes a set of examples, returning a new slice.
func (s *Scaler) ApplyAll(examples []Example) []Example {
	out := make([]Example, len(examples))
	for i, e := range examples {
		out[i] = Example{X: s.Apply(e.X), Y: e.Y}
	}
	return out
}

// MinDownlink returns the minimum number of downlink packets a window
// must contain to be classifiable, scaled to the eavesdropping
// duration. The sniffer anchors on AP→user traffic (the framing of
// Table I); windows that are effectively silent in the downlink are
// not classification instances.
func MinDownlink(w time.Duration) int {
	m := int(math.Ceil(0.3 * w.Seconds()))
	if m < 2 {
		m = 2
	}
	return m
}

// WindowQualifies reports whether a window with the given downlink
// packet count is a classification instance for eavesdropping windows
// of length w. This is the single qualification rule shared by the
// batch cutter (AppendWindowsOf) and the streaming engine, which
// tracks the downlink count incrementally instead of re-scanning the
// window.
func WindowQualifies(downlink int, w time.Duration) bool {
	return downlink >= MinDownlink(w)
}

// AppendWindowsOf cuts a per-MAC flow into eavesdropping windows of
// length w and appends to dst only those with at least MinDownlink(w)
// downlink packets. The windows alias the flow's packet storage (see
// trace.Trace.AppendWindows); labeled windows carry the majority
// ground-truth label. Hot-path callers that label windows from
// external ground truth (or not at all) pass labeled=false and recycle
// one buffer across flows.
func AppendWindowsOf(dst []trace.Window, tr *trace.Trace, w time.Duration, labeled bool) []trace.Window {
	mark := len(dst)
	dst = tr.AppendWindows(dst, w, 1, labeled)
	out := dst[:mark]
	for _, win := range dst[mark:] {
		downs := 0
		for _, p := range win.Packets {
			if p.Dir == trace.Downlink {
				downs++
			}
		}
		if WindowQualifies(downs, w) {
			out = append(out, win)
		}
	}
	return out
}
