package attack

import (
	"slices"
	"sort"

	"trafficreshape/internal/mac"
	"trafficreshape/internal/trace"
)

// Sequence-number linking: an unlinkability hazard for virtual-MAC
// schemes that the paper does not discuss but that a careful
// implementation must handle. The 802.11 sequence-control field is
// cleartext in every frame header. If a wireless card runs one
// hardware sequence counter across all of its virtual interfaces, the
// per-address streams a sniffer records interleave into one global
// counter: whenever interface A sends seq=n, the next frame from
// interface B carries seq=n+1. Merging the flows of any two addresses
// of the same card yields a (mod-4096) monotone sequence with small
// steps, while flows of genuinely distinct cards collide constantly.
//
// The defense — implemented in internal/wlan as PerInterfaceSeq — is
// to give every virtual interface its own independent counter with a
// random initial offset, which restores the collision statistics of
// unrelated stations.

// seqStep returns the forward distance a→b on the 12-bit sequence
// ring.
func seqStep(a, b uint16) int {
	return int((b - a) & 0x0fff)
}

// SequenceConsistency measures how well two per-address flows
// interleave into a single shared counter: the fraction of adjacent
// cross-flow pairs (in time order) whose forward sequence step is
// within maxStep. Same-counter flows score near 1; independent
// counters score near maxStep/4096.
func SequenceConsistency(a, b *trace.Trace, maxStep int) float64 {
	type obs struct {
		t   int64
		seq uint16
	}
	merged := make([]obs, 0, a.Len()+b.Len())
	for _, p := range a.Packets {
		merged = append(merged, obs{int64(p.Time), p.Seq})
	}
	for _, p := range b.Packets {
		merged = append(merged, obs{int64(p.Time), p.Seq})
	}
	if len(merged) < 2 {
		return 0
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].t < merged[j].t })
	ok, total := 0, 0
	for i := 1; i < len(merged); i++ {
		step := seqStep(merged[i-1].seq, merged[i].seq)
		total++
		if step >= 1 && step <= maxStep {
			ok++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(ok) / float64(total)
}

// LinkBySequence clusters observed addresses whose pairwise sequence
// consistency exceeds threshold (union-find over the consistency
// graph). maxStep tolerates frames the sniffer missed; 8 is generous
// for a quiet WLAN. Returns groups of addresses believed to share one
// physical card, singletons included.
func LinkBySequence(tr *trace.Trace, maxStep int, threshold float64) [][]mac.Address {
	flows := tr.ByMAC()
	addrs := make([]mac.Address, 0, len(flows))
	for a := range flows {
		addrs = append(addrs, a)
	}
	slices.SortFunc(addrs, mac.Address.Compare)

	parent := make(map[mac.Address]mac.Address, len(addrs))
	for _, a := range addrs {
		parent[a] = a
	}
	var find func(a mac.Address) mac.Address
	find = func(a mac.Address) mac.Address {
		if parent[a] != a {
			parent[a] = find(parent[a])
		}
		return parent[a]
	}
	union := func(a, b mac.Address) { parent[find(a)] = find(b) }

	for i := 0; i < len(addrs); i++ {
		for j := i + 1; j < len(addrs); j++ {
			if SequenceConsistency(flows[addrs[i]], flows[addrs[j]], maxStep) >= threshold {
				union(addrs[i], addrs[j])
			}
		}
	}
	groups := make(map[mac.Address][]mac.Address)
	for _, a := range addrs {
		root := find(a)
		groups[root] = append(groups[root], a)
	}
	roots := make([]mac.Address, 0, len(groups))
	for r := range groups {
		roots = append(roots, r)
	}
	slices.SortFunc(roots, mac.Address.Compare)
	out := make([][]mac.Address, 0, len(roots))
	for _, r := range roots {
		out = append(out, groups[r])
	}
	return out
}
