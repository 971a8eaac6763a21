package defense

import (
	"trafficreshape/internal/stats"
	"trafficreshape/internal/trace"
)

// TPC implements the §V-A countermeasure against power analysis:
// per-packet transmission power control. An adversary can cluster
// packets by received signal strength and link multiple virtual MAC
// addresses back to one physical transmitter; randomizing the transmit
// power per packet adds noise to the RSSI the sniffer observes,
// disguising the virtual interfaces as distinct stations.
type TPC struct {
	// SwingDB is the peak-to-peak transmit power variation in dB.
	// Commodity 802.11 radios expose roughly 15–20 dB of range
	// (the paper cites per-packet TPC feasibility from Kowalik et al.).
	SwingDB float64
	rng     *stats.RNG
}

// NewTPC builds a per-packet power controller with the given swing.
func NewTPC(swingDB float64, seed uint64) *TPC {
	if swingDB < 0 {
		panic("defense: negative TPC swing")
	}
	return &TPC{SwingDB: swingDB, rng: stats.NewRNG(seed)}
}

// Offset draws the transmit power offset (dB) for one packet,
// uniform in [-SwingDB/2, +SwingDB/2].
func (t *TPC) Offset() float64 {
	return (t.rng.Float64() - 0.5) * t.SwingDB
}

// Apply returns a copy of tr with per-packet power offsets folded
// into the recorded RSSI values, as the sniffer would observe them.
func (t *TPC) Apply(tr *trace.Trace) *trace.Trace {
	out := tr.Clone()
	for i := range out.Packets {
		out.Packets[i].RSSI += t.Offset()
	}
	return out
}

// InterfaceTPC assigns each virtual interface its own stable transmit
// power level (plus per-packet jitter). Pure per-packet randomization
// is not enough against an adversary who averages RSSI over many
// packets — the noise integrates away. To "disguise multiple virtual
// interfaces as multiple users in the same WLAN" (§V-A), each
// interface must *look like a different distance*, i.e. carry a
// distinct mean power offset.
type InterfaceTPC struct {
	// SwingDB bounds the per-interface base offsets.
	SwingDB float64
	// JitterDB is additional per-packet noise on top of the base.
	JitterDB float64
	base     map[int]float64
	rng      *stats.RNG
}

// NewInterfaceTPC builds a per-interface power controller.
func NewInterfaceTPC(swingDB, jitterDB float64, seed uint64) *InterfaceTPC {
	if swingDB < 0 || jitterDB < 0 {
		panic("defense: negative TPC parameters")
	}
	return &InterfaceTPC{
		SwingDB:  swingDB,
		JitterDB: jitterDB,
		base:     make(map[int]float64),
		rng:      stats.NewRNG(seed),
	}
}

// OffsetFor returns the power offset (dB) for one packet on the given
// interface: the interface's stable base plus fresh jitter.
func (t *InterfaceTPC) OffsetFor(iface int) float64 {
	b, ok := t.base[iface]
	if !ok {
		b = (t.rng.Float64() - 0.5) * t.SwingDB
		t.base[iface] = b
	}
	return b + (t.rng.Float64()-0.5)*t.JitterDB
}
