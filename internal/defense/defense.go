// Package defense implements the defenses the paper compares traffic
// reshaping against (§II-B, §IV-D), plus the extensions sketched in
// §V: packet padding to the MTU, traffic morphing between application
// classes, packet splitting, per-packet transmission power control,
// and the combined reshaping+morphing pipeline.
//
// Unlike reshaping, padding and morphing *modify* packets; their
// communication overhead — the paper's Table VI efficiency metric — is
// the relative growth in total bytes.
//
// Each operation has one form: Pad returns a padded copy,
// Morpher.ApplyInPlace morphs the trace it is given, and AppendSplit
// appends the fragments to a destination the caller may reuse.
package defense

import (
	"fmt"
	"slices"
	"time"

	"trafficreshape/internal/stats"
	"trafficreshape/internal/trace"
)

// MTU is the maximum on-air packet size of the paper's traces: all
// padding targets 1576 bytes (§IV-D).
const MTU = 1576

// Overhead reports the relative byte inflation of a transformed trace
// against the original: (after − before) / before (as a fraction;
// multiply by 100 for a percentage).
func Overhead(before, after *trace.Trace) float64 {
	return growth(before.Bytes(), after.Bytes())
}

// DominantOverhead reports the overhead over the application's
// byte-dominant direction, which is how Table VI's numbers come out:
// uploading shows 0% padding overhead because its uplink is already
// MTU-sized, even though its downlink ACKs inflate enormously. An
// equal-bytes tie counts as downlink.
func DominantOverhead(before, after *trace.Trace) float64 {
	bd, bu := directionBytes(before)
	ad, au := directionBytes(after)
	if bu > bd {
		return growth(bu, au)
	}
	return growth(bd, ad)
}

// directionBytes sums a trace's downlink and uplink bytes in one pass.
func directionBytes(tr *trace.Trace) (down, up int64) {
	for _, p := range tr.Packets {
		if p.Dir == trace.Uplink {
			up += int64(p.Size)
		} else {
			down += int64(p.Size)
		}
	}
	return down, up
}

// growth is (after − before) / before, and 0 when before is 0.
func growth(before, after int64) float64 {
	if before == 0 {
		return 0
	}
	return float64(after-before) / float64(before)
}

// Pad returns a copy of tr with every packet padded up to target
// bytes (packets already at or above target are unchanged). With
// target = MTU this is the paper's packet-padding baseline: "we pad
// all the packets to the maximum packet size (i.e., 1576 bytes)".
func Pad(tr *trace.Trace, target int) *trace.Trace {
	if target <= 0 {
		panic("defense: padding target must be positive")
	}
	out := tr.Clone()
	for i := range out.Packets {
		if int(out.Packets[i].Size) < target {
			out.Packets[i].Size = int32(target)
		}
	}
	return out
}

// MorphModel holds the precomputed, immutable morphing tables toward
// one target trace: per direction, the ascending empirical size sample
// plus an O(1) size → conditional-tail lookup table over the
// [0, MTU+1] size domain. The domain is total because sortInts clamps
// every sample to MTU+1 as the tables are built (exactly as the
// pre-table morpher did), so sizes above it can never find target
// mass and keep their value. A model is built once per target trace
// and is safe for concurrent use; Morpher binds it to a private
// random stream.
type MorphModel struct {
	down, up sizeTable
}

// sizeTable is one direction's morphing table.
type sizeTable struct {
	// samples is the empirical target size sample, ascending.
	samples []int
	// firstGE[s] is the first index i with samples[i] >= s — the
	// binary search over samples, precomputed for every possible
	// packet size so the per-packet lookup is O(1).
	firstGE [MTU + 2]int32
}

func newSizeTable(samples []int) sizeTable {
	t := sizeTable{samples: samples}
	idx := len(samples)
	for s := MTU + 1; s >= 0; s-- {
		for idx > 0 && samples[idx-1] >= s {
			idx--
		}
		t.firstGE[s] = int32(idx)
	}
	return t
}

// morph maps one source size to its morphed size, drawing uniformly
// from the target sample's conditional upper tail (exactly the draw
// the binary-search implementation made: same tail start, same Intn).
func (t *sizeTable) morph(size int, rng *stats.RNG) int {
	if size > MTU+1 {
		// sortInts clamps every sample to MTU+1 when the table is
		// built (and rejects negatives), so no target mass can sit
		// above MTU+1: a binary search would land at len(samples)
		// and keep the size. Jumbo-target equivalence is pinned by
		// TestMorphSizeJumboTargetMatchesReference.
		return size
	}
	if size < 0 {
		size = 0 // every sample is >= 0, like a binary search from lo=0
	}
	lo := int(t.firstGE[size])
	if lo == len(t.samples) {
		return size // no target mass above; keep (cannot shrink)
	}
	return t.samples[lo+rng.Intn(len(t.samples)-lo)]
}

// NewMorphModel precomputes the morphing tables toward the size
// distribution of the target trace. A direction absent from the
// target takes the other direction's sample — which is then the
// combined sample — so every packet still has a morph table.
func NewMorphModel(target *trace.Trace) (*MorphModel, error) {
	if target.Len() == 0 {
		return nil, fmt.Errorf("defense: empty morphing target")
	}
	// One pass: downlink sizes fill the array from the front, uplink
	// sizes from the back.
	sizes := make([]int, target.Len())
	nDown, nUp := 0, 0
	for _, p := range target.Packets {
		if p.Dir == trace.Uplink {
			nUp++
			sizes[len(sizes)-nUp] = int(p.Size)
		} else {
			sizes[nDown] = int(p.Size)
			nDown++
		}
	}
	down, up := sizes[:nDown:nDown], sizes[nDown:]
	sortInts(down)
	sortInts(up)
	if len(down) == 0 {
		down = up
	}
	if len(up) == 0 {
		up = down
	}
	return &MorphModel{down: newSizeTable(down), up: newSizeTable(up)}, nil
}

// Morpher binds the model to a private random stream. Many morphers
// can share one model — the per-cell construction cost collapses to
// seeding an RNG.
func (m *MorphModel) Morpher(seed uint64) *Morpher {
	return &Morpher{model: m, rng: stats.NewRNG(seed)}
}

// Morpher rewrites packet sizes so a source application's size
// distribution imitates a target application's (§II-B, Wright et
// al.'s traffic morphing). Morphing is applied per direction — a
// flow's downlink imitates the target's downlink — because the
// classifier's features are per direction. Because the MAC layer
// cannot shrink a packet without splitting it (which the paper's
// comparison forbids), each packet is mapped to a sample of the
// target distribution conditioned on being at least the packet's own
// size; when the target has no mass above the packet size, the packet
// keeps its size. This is the minimum-overhead direct sampling analog
// of the morphing matrix.
type Morpher struct {
	model *MorphModel
	rng   *stats.RNG
}

func sortInts(xs []int) {
	// Counting sort over the bounded size domain: target traces are
	// large.
	var counts [MTU + 2]int
	maxSeen := 0
	for _, x := range xs {
		if x < 0 {
			panic("defense: negative packet size")
		}
		if x > MTU+1 {
			x = MTU + 1
		}
		counts[x]++
		if x > maxSeen {
			maxSeen = x
		}
	}
	i := 0
	for v := 0; v <= maxSeen; v++ {
		for c := counts[v]; c > 0; c-- {
			xs[i] = v
			i++
		}
	}
}

// morphSize maps one source packet size to its morphed size using the
// target sample for the given direction.
func (m *Morpher) morphSize(size int, dir trace.Direction) int {
	if dir == trace.Uplink {
		return m.model.up.morph(size, m.rng)
	}
	return m.model.down.morph(size, m.rng)
}

// ApplyInPlace morphs every packet of tr, mutating tr. A caller that
// must keep the original morphs a copy: Clone, or a reused scratch
// trace refilled per call.
func (m *Morpher) ApplyInPlace(tr *trace.Trace) {
	for i := range tr.Packets {
		p := &tr.Packets[i]
		p.Size = int32(m.morphSize(int(p.Size), p.Dir))
	}
}

// PaperMorphChain returns the paper's §IV-D morph assignment: chatting
// is disguised as gaming, gaming as browsing, browsing as BitTorrent,
// BitTorrent as online video, and video as downloading. Downloading
// and uploading are left unmorphed ("do." and "up." rows of Table VI
// show zero morphing overhead).
func PaperMorphChain() map[trace.App]trace.App {
	return map[trace.App]trace.App{
		trace.Chatting:   trace.Gaming,
		trace.Gaming:     trace.Browsing,
		trace.Browsing:   trace.BitTorrent,
		trace.BitTorrent: trace.Video,
		trace.Video:      trace.Downloading,
	}
}

// AppendSplit appends tr's packets to dst with every packet larger
// than maxSize divided into ceil(size/max) packets of at most maxSize
// bytes, spaced by a small serialization gap, and returns dst. §V-C
// mentions splitting as a way to push downloading/uploading accuracy
// down at the cost of network performance (more packets, more
// per-packet header overhead — we account headerBytes of MAC/transport
// header per extra fragment). A caller that splits in a loop truncates
// and re-fills one destination trace. Only the appended packets are
// put in time order; dst's earlier packets and tr are never modified.
func AppendSplit(dst, tr *trace.Trace, maxSize int, headerBytes int) *trace.Trace {
	if maxSize <= headerBytes {
		panic("defense: split size must exceed header size")
	}
	// Count the fragments first so the output grows at most once: the
	// first fragment of a packet carries maxSize bytes of it and every
	// later one at most maxSize-headerBytes.
	n, per := 0, maxSize-headerBytes
	for _, p := range tr.Packets {
		n++
		if rest := int(p.Size) - maxSize; rest > 0 {
			n += (rest + per - 1) / per
		}
	}
	start := len(dst.Packets)
	dst.Packets = slices.Grow(dst.Packets, n)
	const serializationGap = 200 * time.Microsecond
	for _, p := range tr.Packets {
		if int(p.Size) <= maxSize {
			dst.Append(p)
			continue
		}
		remaining := int(p.Size)
		frag := 0
		for remaining > 0 {
			chunk := maxSize
			if remaining < maxSize-headerBytes {
				chunk = remaining + headerBytes
			}
			fp := p
			fp.Size = int32(chunk)
			fp.Time = p.Time + time.Duration(frag)*serializationGap
			dst.Append(fp)
			payload := chunk - headerBytes
			if frag == 0 {
				payload = chunk // first fragment reuses the original header accounting
			}
			remaining -= payload
			frag++
		}
	}
	tail := trace.Trace{Packets: dst.Packets[start:]}
	tail.Sort()
	return dst
}
