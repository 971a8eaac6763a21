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
)

// Dim is the dimensionality of a feature vector: six per direction.
const Dim = 12

// Names lists the feature order, for diagnostics and reports.
var Names = [Dim]string{
	"down_count", "down_mean", "down_std", "down_max", "down_min", "down_gap",
	"up_count", "up_mean", "up_std", "up_max", "up_min", "up_gap",
}

// Vector is one window's features in the order of Names.
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
	// Streaming per-direction accumulators, indexed 0 = downlink,
	// 1 = uplink. Two passes over the window (sum, then squared
	// deviations) keep the arithmetic — and therefore the resulting
	// bits — identical to the slice-based stats.Describe formulation
	// while allocating nothing.
	var n [2]int
	var sum, minv, maxv [2]float64
	var first, last [2]time.Duration
	for _, p := range w.Packets {
		d := 0
		if p.Dir == trace.Uplink {
			d = 1
		}
		s := float64(p.Size)
		if n[d] == 0 {
			minv[d], maxv[d] = s, s
			first[d] = p.Time
		} else {
			if s < minv[d] {
				minv[d] = s
			}
			if s > maxv[d] {
				maxv[d] = s
			}
		}
		sum[d] += s
		last[d] = p.Time
		n[d]++
	}
	var mean, ss [2]float64
	for d := 0; d < 2; d++ {
		if n[d] > 0 {
			mean[d] = sum[d] / float64(n[d])
		}
	}
	for _, p := range w.Packets {
		d := 0
		if p.Dir == trace.Uplink {
			d = 1
		}
		diff := float64(p.Size) - mean[d]
		ss[d] += diff * diff
	}
	var v Vector
	for d := 0; d < 2; d++ {
		if n[d] == 0 {
			continue // all-zero block encodes "direction absent"
		}
		off := 6 * d
		v[off+0] = math.Log1p(float64(n[d]))
		v[off+1] = mean[d]
		v[off+2] = math.Sqrt(ss[d] / float64(n[d]))
		v[off+3] = maxv[d]
		v[off+4] = minv[d]
		if n[d] >= 2 {
			v[off+5] = (last[d] - first[d]).Seconds() / float64(n[d]-1)
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

// WindowsOf cuts a per-MAC flow into eavesdropping windows of length
// w, keeping only windows with at least MinDownlink(w) downlink
// packets. Windows carry the majority ground-truth label and alias
// the flow's packet storage (see trace.Trace.Windows).
func WindowsOf(tr *trace.Trace, w time.Duration) []trace.Window {
	return AppendWindowsOf(nil, tr, w, true)
}

// AppendWindowsOf is WindowsOf with scratch reuse and optional
// labeling: qualifying windows are appended to dst. Hot-path callers
// that label windows from external ground truth (or not at all) pass
// labeled=false and recycle one buffer across flows.
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
