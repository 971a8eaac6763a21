package defense

import "trafficreshape/internal/stats"

// InterfaceTPC implements the §V-A countermeasure against power
// analysis: transmission power control. An adversary can cluster
// packets by received signal strength and link multiple virtual MAC
// addresses back to one physical transmitter. Pure per-packet
// randomization of the transmit power is not enough against an
// adversary who averages RSSI over many packets — the noise integrates
// away. To "disguise multiple virtual interfaces as multiple users in
// the same WLAN" (§V-A), each interface must *look like a different
// distance*, so InterfaceTPC gives each interface its own stable
// transmit power level plus per-packet jitter.
type InterfaceTPC struct {
	// SwingDB bounds the per-interface base offsets. Commodity 802.11
	// radios expose roughly 15–20 dB of range (the paper cites
	// per-packet TPC feasibility from Kowalik et al.).
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
