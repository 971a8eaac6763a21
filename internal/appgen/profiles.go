// Package appgen generates synthetic packet traces for the seven
// online activities the paper studies (§II-A, Figure 1): web browsing,
// chatting, online gaming, downloading, uploading, online video and
// BitTorrent.
//
// The paper evaluates on >50 hours of residential 802.11 captures we
// do not have. Per the reproduction plan (DESIGN.md §2), each
// application is replaced by a parametric model calibrated against
// every statistic the paper reports:
//
//   - Table I "Original" column: mean downlink packet size and mean
//     interarrival time per application;
//   - Figure 1: packet sizes concentrate around [108, 232] and
//     [1546, 1576] bytes (§III-C3), with application-specific mixing;
//   - §II-A qualitative structure: chatting/gaming are low-rate with
//     small packets, down/uploading are bulk in one direction, video
//     has a stable rate, browsing is bursty, BitTorrent is bimodal in
//     both directions.
//
// Both the reshaping schedulers and the traffic-analysis classifier
// consume only (time, size, direction) tuples, so matching these
// marginals preserves the feature-space geometry the evaluation
// depends on.
package appgen

import (
	"math"
	"slices"
	"sync"
	"time"

	"trafficreshape/internal/stats"
	"trafficreshape/internal/trace"
)

// MaxPacketSize is the largest on-air packet the paper's traces
// contain (ℓ_max = 1576 bytes, §III-C).
const MaxPacketSize = 1576

// MinPacketSize is the smallest packet we generate (an 802.11 ACK-
// sized transport segment).
const MinPacketSize = 28

// StreamProfile describes one direction of an application's traffic.
type StreamProfile struct {
	// Sizes yields packet sizes in bytes (clamped to
	// [MinPacketSize, MaxPacketSize] by the generator).
	Sizes stats.Jittered
	// Gap yields the interarrival time, in seconds, between
	// consecutive packets of this stream.
	Gap stats.Dist
}

// Profile is a complete two-direction application model.
type Profile struct {
	App  trace.App
	Down StreamProfile // AP → station
	Up   StreamProfile // station → AP
}

func sizes(vals []int, weights []float64, jitter int) stats.Jittered {
	return stats.Jittered{Base: stats.NewDiscreteInt(vals, weights), Jitter: jitter}
}

// Profiles returns the seven calibrated application models, indexed by
// trace.App. The magic numbers below are the calibration targets from
// Table I of the paper; see the package comment and
// TestProfileCalibration for the tolerance checks.
func Profiles() map[trace.App]Profile {
	return map[trace.App]Profile{
		// Browsing: bursty downlink mixing object payloads
		// (MTU-sized), mid-size fragments and small control
		// segments. Target: mean size 1013.2 B, mean gap 28.4 ms.
		trace.Browsing: {
			App: trace.Browsing,
			Down: StreamProfile{
				Sizes: sizes([]int{170, 600, 1556}, []float64{0.33, 0.09, 0.58}, 40),
				Gap: stats.NewMixture(
					[]float64{0.9, 0.1},
					[]stats.Dist{stats.Exponential{MeanV: 0.008}, stats.Exponential{MeanV: 0.21}},
				),
			},
			Up: StreamProfile{
				Sizes: sizes([]int{90, 350}, []float64{0.85, 0.15}, 20),
				Gap: stats.NewMixture(
					[]float64{0.9, 0.1},
					[]stats.Dist{stats.Exponential{MeanV: 0.02}, stats.Exponential{MeanV: 0.42}},
				),
			},
		},
		// Chatting: sparse, small messages both ways.
		// Target: mean size 269.1 B, mean gap 0.99 s.
		trace.Chatting: {
			App: trace.Chatting,
			Down: StreamProfile{
				Sizes: sizes([]int{180, 600, 1400}, []float64{0.85, 0.12, 0.03}, 50),
				Gap:   stats.Exponential{MeanV: 0.99},
			},
			Up: StreamProfile{
				Sizes: sizes([]int{160, 500}, []float64{0.90, 0.10}, 40),
				Gap:   stats.Exponential{MeanV: 1.2},
			},
		},
		// Gaming: moderate-rate state updates, mid-size downlink.
		// Target: mean size 459.5 B, mean gap 0.308 s.
		trace.Gaming: {
			App: trace.Gaming,
			Down: StreamProfile{
				Sizes: sizes([]int{205, 790, 1560}, []float64{0.70, 0.20, 0.10}, 60),
				Gap:   stats.Exponential{MeanV: 0.3084},
			},
			Up: StreamProfile{
				Sizes: sizes([]int{130}, []float64{1}, 30),
				Gap:   stats.Exponential{MeanV: 0.25},
			},
		},
		// Downloading: saturated MTU-sized downlink, sparse TCP
		// ACK uplink. Target: mean size 1575.3 B, mean gap 2.3 ms.
		// All downlink packets sit in the top size range
		// (1540, 1576], which is what pins OR's interface 3
		// (Table I row "do.").
		trace.Downloading: {
			App: trace.Downloading,
			Down: StreamProfile{
				Sizes: sizes([]int{1576, 1552}, []float64{0.97, 0.03}, 0),
				Gap:   stats.Exponential{MeanV: 0.0023},
			},
			Up: StreamProfile{
				Sizes: sizes([]int{80}, []float64{1}, 12),
				Gap:   stats.Exponential{MeanV: 0.0046},
			},
		},
		// Uploading: the mirror image — bulk uplink, ACK downlink.
		// Target: downlink mean size 132.8 B, mean gap 30.1 ms.
		trace.Uploading: {
			App: trace.Uploading,
			Down: StreamProfile{
				Sizes: sizes([]int{124, 212}, []float64{0.90, 0.10}, 16),
				Gap:   stats.Exponential{MeanV: 0.0301},
			},
			Up: StreamProfile{
				Sizes: sizes([]int{1576, 1500}, []float64{0.97, 0.03}, 0),
				Gap:   stats.Exponential{MeanV: 0.015},
			},
		},
		// Online video: stable high rate, dominated by MTU-sized
		// segments with a sprinkling of mid/small control packets
		// (codec/audio). Target: mean size ≈ 1547.6 B, gap 11.9 ms
		// with low jitter ("relatively stable data rate", §II-A).
		trace.Video: {
			App: trace.Video,
			Down: StreamProfile{
				Sizes: sizes([]int{1576, 520, 130}, []float64{0.94, 0.04, 0.02}, 0),
				Gap:   stats.Normal{MeanV: 0.0119, Sigma: 0.002, Min: 0.002},
			},
			Up: StreamProfile{
				Sizes: sizes([]int{90}, []float64{1}, 15),
				Gap:   stats.Exponential{MeanV: 0.05},
			},
		},
		// BitTorrent: bimodal piece/control mix in both
		// directions. Target: mean size 962.0 B, mean gap 24.7 ms.
		trace.BitTorrent: {
			App: trace.BitTorrent,
			Down: StreamProfile{
				Sizes: sizes([]int{150, 900, 1570}, []float64{0.40, 0.06, 0.54}, 40),
				Gap: stats.NewMixture(
					[]float64{0.85, 0.15},
					[]stats.Dist{stats.Exponential{MeanV: 0.012}, stats.Exponential{MeanV: 0.1}},
				),
			},
			Up: StreamProfile{
				Sizes: sizes([]int{140, 1570}, []float64{0.55, 0.45}, 30),
				Gap:   stats.Exponential{MeanV: 0.04},
			},
		},
	}
}

// PaperTargets returns the Table I "Original" column the profiles are
// calibrated against: downlink mean packet size (bytes) and mean
// interarrival time (seconds) per application.
func PaperTargets() map[trace.App]struct{ AvgSize, AvgGap float64 } {
	return map[trace.App]struct{ AvgSize, AvgGap float64 }{
		trace.Browsing:    {1013.2, 0.0284},
		trace.Chatting:    {269.1, 0.9901},
		trace.Gaming:      {459.5, 0.3084},
		trace.Downloading: {1575.3, 0.0023},
		trace.Uploading:   {132.8, 0.0301},
		trace.Video:       {1547.6, 0.0119},
		trace.BitTorrent:  {962.04, 0.0247},
	}
}

// Generate produces a two-direction trace of the given duration for
// one application. Packets are time-sorted and labeled with the
// application ground truth. The same seed always yields the same
// trace.
func Generate(app trace.App, duration time.Duration, seed uint64) *trace.Trace {
	p, ok := Profiles()[app]
	if !ok {
		panic("appgen: unknown application")
	}
	return GenerateProfile(p, duration, seed)
}

// GenerateProfile renders an explicit profile to a trace; exposed so
// tests and ablations can run tweaked models. Each direction draws
// from its own SplitAt stream of the root generator, so the downlink
// is a pure function of (profile, duration, seed) no matter where or
// in what order the two streams are rendered.
func GenerateProfile(p Profile, duration time.Duration, seed uint64) *trace.Trace {
	root := stats.NewRNG(seed)
	// Both directions render into one pooled buffer, downlink first,
	// and are merged as two views of it into the exact-size output.
	// Merge always copies into fresh memory, so the buffer goes back
	// to the pool as soon as it returns.
	bp := dirBufPool.Get().(*[]trace.Packet)
	buf := slices.Grow((*bp)[:0], streamCap(p.Down, duration)+streamCap(p.Up, duration))
	buf = genStream(buf, p.App, trace.Downlink, p.Down, duration, root.SplitAt(0))
	nDown := len(buf)
	buf = genStream(buf, p.App, trace.Uplink, p.Up, duration, root.SplitAt(1))
	out := trace.Merge(&trace.Trace{Packets: buf[:nDown]}, &trace.Trace{Packets: buf[nDown:]})
	*bp = buf[:0]
	dirBufPool.Put(bp)
	return out
}

// dirBufPool holds GenerateProfile's two-direction buffers.
var dirBufPool = sync.Pool{New: func() any { return new([]trace.Packet) }}

// streamCap is the capacity reserved for one direction: the expected
// packet count n = duration/mean gap plus Poisson slack of four
// standard deviations (4·√n) and a constant, so heavy-tailed gap
// draws rarely outgrow the buffer.
func streamCap(sp StreamProfile, duration time.Duration) int {
	mean := sp.Gap.Mean()
	if mean <= 0 {
		return 1024
	}
	n := duration.Seconds() / mean
	return int(n+4*math.Sqrt(n)) + 16
}

// genStream appends one direction's packets to dst and returns the
// extended slice.
func genStream(dst []trace.Packet, app trace.App, dir trace.Direction, sp StreamProfile, duration time.Duration, r *stats.RNG) []trace.Packet {
	// Start at a random phase within one mean gap so merged traces
	// don't all align at t=0.
	t := time.Duration(sp.Gap.Sample(r) * float64(time.Second))
	for t < duration {
		size := sp.Sizes.SampleInt(r)
		if size < MinPacketSize {
			size = MinPacketSize
		}
		if size > MaxPacketSize {
			size = MaxPacketSize
		}
		dst = append(dst, trace.Packet{
			Time: t,
			Size: int32(size),
			Dir:  dir,
			App:  app,
		})
		gap := sp.Gap.Sample(r)
		if gap <= 0 {
			gap = 1e-6
		}
		t += time.Duration(gap * float64(time.Second))
	}
	return dst
}

// GenerateAll produces one trace per application over the same
// duration, with per-application derived seeds (AppSeed).
func GenerateAll(duration time.Duration, seed uint64) map[trace.App]*trace.Trace {
	out := make(map[trace.App]*trace.Trace, trace.NumApps)
	for _, app := range trace.Apps {
		out[app] = Generate(app, duration, AppSeed(seed, app))
	}
	return out
}

// AppSeed derives the per-application generator seed GenerateAll
// uses from the master seed. Exposed so callers substituting captured
// traces for some applications can generate the remaining ones
// bit-identically to a full GenerateAll.
func AppSeed(seed uint64, app trace.App) uint64 {
	return seed + uint64(app)*0x9e3779b9
}
