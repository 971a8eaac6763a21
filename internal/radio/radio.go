// Package radio models the wireless medium at the level the paper's
// evaluation needs: per-frame airtime at an 802.11 PHY rate, a medium
// that serialises frames per channel (the FH baseline hops across
// channels 1, 6 and 11), and a log-distance path-loss model that yields the
// RSSI a sniffer observes — the physical-layer side channel of §V-A.
package radio

import (
	"math"
	"time"

	"trafficreshape/internal/stats"
)

// Rate is an 802.11 PHY data rate in Mbps.
type Rate float64

// DefaultRate is the simulation's default PHY rate.
const DefaultRate Rate = 54

// Airtime returns the on-air duration of a frame of the given size at
// the given rate, including a fixed PHY preamble+SIFS overhead. The
// model is deliberately simple: the evaluation depends on relative
// timing, not on DCF microstructure.
func Airtime(sizeBytes int, rate Rate) time.Duration {
	if sizeBytes < 0 || rate <= 0 {
		panic("radio: invalid airtime parameters")
	}
	const preamble = 20 * time.Microsecond
	bits := float64(sizeBytes * 8)
	sec := bits / (float64(rate) * 1e6)
	return preamble + time.Duration(sec*float64(time.Second))
}

// PathLoss is the log-distance path-loss model: received power
// decreases with 10·n·log10(d/d0) dB beyond the reference distance.
// Indoor 802.11 measurements typically fit n ≈ 3–4.
type PathLoss struct {
	// TxPowerDBm is the transmit power (default 15 dBm).
	TxPowerDBm float64
	// RefLossDB is the loss at the reference distance d0 = 1 m
	// (default 40 dB for 2.4 GHz).
	RefLossDB float64
	// Exponent is the path-loss exponent n (default 3.3).
	Exponent float64
	// ShadowSigmaDB is log-normal shadowing noise per observation
	// (default 2 dB).
	ShadowSigmaDB float64
}

// DefaultPathLoss returns parameters matching the paper's residential
// measurement setting (RSSI around −50 dBm at short indoor range).
func DefaultPathLoss() PathLoss {
	return PathLoss{TxPowerDBm: 15, RefLossDB: 40, Exponent: 3.3, ShadowSigmaDB: 2}
}

// RSSIAt returns the received signal strength (dBm) at distance d
// meters, with shadowing sampled from r (pass nil for the noiseless
// mean).
func (p PathLoss) RSSIAt(d float64, r *stats.RNG) float64 {
	if d < 1 {
		d = 1
	}
	rssi := p.TxPowerDBm - p.RefLossDB - 10*p.Exponent*math.Log10(d)
	if r != nil && p.ShadowSigmaDB > 0 {
		rssi += p.ShadowSigmaDB * r.NormFloat64()
	}
	return rssi
}

// Position is a 2-D location in meters.
type Position struct{ X, Y float64 }

// Distance returns the Euclidean distance between two positions.
func (a Position) Distance(b Position) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Medium is the shared broadcast channel: transmitters emit frames on
// a channel; every listener tuned to that channel hears them with an
// RSSI derived from geometry. The medium serializes airtime per
// channel (a busy channel delays the next transmission), which is all
// the MAC realism the evaluation requires.
type Medium struct {
	loss     PathLoss
	rng      *stats.RNG
	busy     map[int]time.Duration // channel -> time the channel frees up
	listener []listenerEntry
	// LossRate is the per-listener probability that a frame is not
	// received (fading, collision with hidden traffic). Protocol
	// machines must tolerate it; see the configuration retry logic
	// in internal/wlan.
	LossRate float64
	// Dropped counts per-listener deliveries suppressed by LossRate.
	Dropped int
}

type listenerEntry struct {
	channel int
	pos     Position
	fn      ListenerFunc
}

// ListenerFunc receives a transmission observed on a channel.
// rssi is the listener-local received strength.
type ListenerFunc func(tx Transmission, rssi float64)

// Transmission is one frame on the air as the medium (and any
// sniffer) sees it.
type Transmission struct {
	At      time.Duration // when the frame hit the air
	Channel int
	Size    int // bytes on the air
	TxPos   Position
	// TxPowerOffsetDB is the per-packet TPC offset (§V-A); zero for
	// constant-power transmitters.
	TxPowerOffsetDB float64
	// Payload carries the frame bytes for protocol endpoints;
	// sniffers must only use the header-visible fields above.
	Payload []byte
}

// NewMedium builds a medium with the given path-loss model.
func NewMedium(loss PathLoss, seed uint64) *Medium {
	return &Medium{
		loss: loss,
		rng:  stats.NewRNG(seed),
		busy: make(map[int]time.Duration),
	}
}

// Subscribe registers a listener at pos on channel. Returns an
// unsubscribe function. Listeners are invoked in subscription order —
// deterministically.
func (m *Medium) Subscribe(channel int, pos Position, fn ListenerFunc) (unsubscribe func()) {
	e := listenerEntry{channel: channel, pos: pos, fn: fn}
	m.listener = append(m.listener, e)
	idx := len(m.listener) - 1
	return func() { m.listener[idx].fn = nil }
}

// Transmit puts a frame on the air at time now, returning the time the
// channel becomes free (start of next permissible transmission) and
// the actual start time of this frame (delayed if the channel was
// busy).
func (m *Medium) Transmit(now time.Duration, tx Transmission, rate Rate) (start, free time.Duration) {
	start = now
	if until, ok := m.busy[tx.Channel]; ok && until > start {
		start = until
	}
	air := Airtime(tx.Size, rate)
	free = start + air
	m.busy[tx.Channel] = free
	tx.At = start
	for _, l := range m.listener {
		if l.fn == nil || l.channel != tx.Channel {
			continue
		}
		if m.LossRate > 0 && m.rng.Float64() < m.LossRate {
			m.Dropped++
			continue
		}
		d := tx.TxPos.Distance(l.pos)
		rssi := m.loss.RSSIAt(d, m.rng) + tx.TxPowerOffsetDB
		l.fn(tx, rssi)
	}
	return start, free
}
