// Package trace models packet traces: timestamped, sized, directional
// packet records grouped into flows. Every stage of the reproduction
// speaks this vocabulary — the application generators emit traces, the
// reshaping schedulers transform them, and the eavesdropper's feature
// extractor consumes them in fixed eavesdropping windows.
package trace

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"time"

	"trafficreshape/internal/mac"
)

// Direction distinguishes uplink (station → AP) from downlink
// (AP → station). The paper's classifier computes every feature
// separately per direction, which is what lets "uploading" survive
// reshaping (§IV-C).
type Direction uint8

// Directions.
const (
	Downlink Direction = iota
	Uplink
)

// Valid reports whether d is Downlink or Uplink, the only directions
// a packet has. The decoders refuse any other byte.
func (d Direction) Valid() bool { return d == Downlink || d == Uplink }

// String implements fmt.Stringer.
func (d Direction) String() string {
	if d == Uplink {
		return "up"
	}
	return "down"
}

// App identifies one of the seven online activities studied by the
// paper (§II-A, Figure 1).
type App uint8

// The seven applications of the paper, in its ordering.
const (
	Browsing App = iota
	Chatting
	Gaming
	Downloading
	Uploading
	Video
	BitTorrent
	NumApps int = 7
)

// Apps lists all seven applications in the paper's table order.
var Apps = []App{Browsing, Chatting, Gaming, Downloading, Uploading, Video, BitTorrent}

var appNames = [...]string{"browsing", "chatting", "gaming", "downloading", "uploading", "video", "bittorrent"}
var appShort = [...]string{"br.", "ch.", "ga.", "do.", "up.", "vo.", "bt."}

// String implements fmt.Stringer.
func (a App) String() string {
	if int(a) < len(appNames) {
		return appNames[a]
	}
	return fmt.Sprintf("app(%d)", uint8(a))
}

// Short returns the paper's two-letter abbreviation (e.g. "br.").
func (a App) Short() string {
	if int(a) < len(appShort) {
		return appShort[a]
	}
	return a.String()
}

// ParseApp resolves a name or paper abbreviation to an App.
func ParseApp(s string) (App, error) {
	for i, n := range appNames {
		if s == n || s == appShort[i] {
			return App(i), nil
		}
	}
	return 0, fmt.Errorf("trace: unknown application %q", s)
}

// Packet is one MAC-layer packet as the sniffer records it: when, how
// big, in which direction, and under which (possibly virtual) MAC
// address it was observed. RSSI and channel support the §V power
// analysis experiments.
//
// The in-memory widths are the binary record's: a 32-bit size and a
// one-byte channel. The fields are ordered widest first so the struct
// has no interior padding: 31 bytes of fields in a 32-byte Packet.
// Every batch stage (generation, merge, partition, windowing, feature
// extraction) scans these, so the size is the memory traffic.
type Packet struct {
	Time time.Duration
	RSSI float64 // received signal strength at the sniffer, dBm
	Size int32   // bytes on the air
	Seq  uint16  // 12-bit 802.11 sequence number, as sniffed
	Dir  Direction
	App  App         // ground-truth label (never visible to the attacker)
	MAC  mac.Address // transmitter/receiver virtual address as observed
	Chan uint8       // 802.11 channel the packet was heard on
}

// Trace is a time-ordered sequence of packets.
type Trace struct {
	Packets []Packet
}

// New returns an empty trace with capacity hint n.
func New(n int) *Trace {
	return &Trace{Packets: make([]Packet, 0, n)}
}

// Append adds a packet. Callers append in time order; a trace built
// out of order is put right with Sort.
func (t *Trace) Append(p Packet) { t.Packets = append(t.Packets, p) }

// Len returns the number of packets.
func (t *Trace) Len() int { return len(t.Packets) }

// Duration returns the time spanned from the first to the last packet.
func (t *Trace) Duration() time.Duration {
	if len(t.Packets) < 2 {
		return 0
	}
	return t.Packets[len(t.Packets)-1].Time - t.Packets[0].Time
}

// Sort orders packets by time, stably, preserving insertion order for
// equal timestamps so merged traces remain deterministic.
//
// It first runs an in-place insertion pass allowed len(Packets)
// moves, which sorts an already sorted or nearly sorted trace (a
// split's fragments, say) in linear time. A trace that exhausts the
// budget is finished by slices.SortStableFunc, so the worst case stays
// that sort's. Insertion only moves a packet past strictly later ones,
// which keeps equal times in their original order: either way the
// result is the one stable order.
func (t *Trace) Sort() {
	ps := t.Packets
	budget := len(ps)
	for i := 1; i < len(ps); i++ {
		p := ps[i]
		j := i
		for ; j > 0 && ps[j-1].Time > p.Time; j-- {
			if budget == 0 {
				ps[j] = p
				slices.SortStableFunc(ps, byTime)
				return
			}
			budget--
			ps[j] = ps[j-1]
		}
		ps[j] = p
	}
}

func byTime(a, b Packet) int { return cmp.Compare(a.Time, b.Time) }

// Sorted reports whether packets are in non-decreasing time order.
func (t *Trace) Sorted() bool {
	for i := 1; i < len(t.Packets); i++ {
		if t.Packets[i].Time < t.Packets[i-1].Time {
			return false
		}
	}
	return true
}

// Clone returns a deep copy.
func (t *Trace) Clone() *Trace {
	return &Trace{Packets: append([]Packet(nil), t.Packets...)}
}

// ByDirection splits the trace into downlink and uplink sub-traces.
// It counts the uplink first and carves both from one exact-size
// array, each capped at its own length so an Append to one never
// overwrites the other.
func (t *Trace) ByDirection() (down, up *Trace) {
	nDown := len(t.Packets)
	for i := range t.Packets {
		if t.Packets[i].Dir == Uplink {
			nDown--
		}
	}
	buf := make([]Packet, len(t.Packets))
	down = &Trace{Packets: buf[:0:nDown]}
	up = &Trace{Packets: buf[nDown:nDown]}
	for _, p := range t.Packets {
		if p.Dir == Uplink {
			up.Append(p)
		} else {
			down.Append(p)
		}
	}
	return down, up
}

// ByMAC groups packets by observed MAC address, preserving time order
// within each group. This is exactly the attacker's first processing
// step: an 802.11 sniffer can only aggregate traffic per address.
func (t *Trace) ByMAC() map[mac.Address]*Trace {
	out := make(map[mac.Address]*Trace)
	for _, p := range t.Packets {
		sub := out[p.MAC]
		if sub == nil {
			sub = New(64)
			out[p.MAC] = sub
		}
		sub.Append(p)
	}
	return out
}

// Merge combines traces into one time-sorted trace: the stable sort of
// their concatenation, so of two packets with equal times the one from
// the earlier argument comes first. The inputs are never modified; one
// that is not sorted is stable-sorted as a copy. The sorted runs are
// merged pairwise, in rounds that alternate between the output and one
// scratch buffer: O(n log k) for k traces, and a single two-pointer
// pass for two.
func Merge(traces ...*Trace) *Trace {
	k := len(traces)
	out := &Trace{Packets: make([]Packet, packetsIn(traces))}
	if k == 0 {
		return out
	}
	// The first round merges the inputs in pairs and each later round
	// merges pairs of the previous round's runs. The last round must
	// write out, so the first writes out when the count is odd.
	rounds := max(1, bits.Len(uint(k-1)))
	dst, src := out.Packets, []Packet(nil)
	if rounds > 1 {
		src = make([]Packet, len(out.Packets))
		if rounds%2 == 0 {
			dst, src = src, dst
		}
	}
	lo := 0
	for i := 0; i < k; i += 2 {
		a, b := sortedPackets(traces[i]), []Packet(nil)
		if i+1 < k {
			b = sortedPackets(traces[i+1])
		}
		hi := lo + len(a) + len(b)
		mergeRuns(dst[lo:hi], a, b)
		lo = hi
	}
	// In the round for width w, a run spans w/2 inputs and its pair the
	// next w/2.
	for w := 4; w/2 < k; w *= 2 {
		dst, src = src, dst
		lo := 0
		for i := 0; i < k; i += w {
			mid := lo + packetsIn(traces[i:min(i+w/2, k)])
			hi := mid + packetsIn(traces[min(i+w/2, k):min(i+w, k)])
			mergeRuns(dst[lo:hi], src[lo:mid], src[mid:hi])
			lo = hi
		}
	}
	return out
}

// sortedPackets returns t's packets in time order: t's own slice when
// it is sorted, else a stable-sorted copy.
func sortedPackets(t *Trace) []Packet {
	if t.Sorted() {
		return t.Packets
	}
	ps := slices.Clone(t.Packets)
	slices.SortStableFunc(ps, byTime)
	return ps
}

// packetsIn returns the total packet count of traces.
func packetsIn(traces []*Trace) int {
	n := 0
	for _, t := range traces {
		n += t.Len()
	}
	return n
}

// mergeRuns merges the sorted runs a and b into dst, which holds
// exactly len(a)+len(b) packets. On equal times a's packet goes first.
func mergeRuns(dst, a, b []Packet) {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		if b[j].Time < a[i].Time {
			dst[n] = b[j]
			j++
		} else {
			dst[n] = a[i]
			i++
		}
		n++
	}
	n += copy(dst[n:], a[i:])
	copy(dst[n:], b[j:])
}

// Sizes returns all packet sizes as float64s, for histogramming.
func (t *Trace) Sizes() []float64 {
	out := make([]float64, len(t.Packets))
	for i, p := range t.Packets {
		out[i] = float64(p.Size)
	}
	return out
}

// Bytes returns the total number of bytes in the trace. Overhead
// comparisons (Table VI) are ratios of these.
func (t *Trace) Bytes() int64 {
	var sum int64
	for _, p := range t.Packets {
		sum += int64(p.Size)
	}
	return sum
}

// Interarrivals returns successive packet time gaps in seconds,
// skipping gaps larger than maxGap (the paper filters out idle gaps
// beyond the eavesdropping window, §IV-B). maxGap <= 0 disables the
// filter.
func (t *Trace) Interarrivals(maxGap time.Duration) []float64 {
	if len(t.Packets) < 2 {
		return nil
	}
	out := make([]float64, 0, len(t.Packets)-1)
	for i := 1; i < len(t.Packets); i++ {
		gap := t.Packets[i].Time - t.Packets[i-1].Time
		if maxGap > 0 && gap > maxGap {
			continue
		}
		out = append(out, gap.Seconds())
	}
	return out
}

// Window is a fixed-duration slice of a trace: the unit the
// eavesdropper classifies. Start is the window's opening time.
type Window struct {
	Start   time.Duration
	W       time.Duration
	Packets []Packet
	App     App // ground truth of the majority packet label
}

// Windows cuts the trace into consecutive windows of duration w,
// dropping windows with fewer than minPackets packets (an attacker
// cannot classify silence). The ground-truth App of each window is the
// majority label among its packets. Each window's Packets is a
// zero-copy subslice of t.Packets: packets are consumed in storage
// order, so every window covers a contiguous run of the backing array
// and no per-window copy is needed. Windows must be treated as
// read-only views — mutating their packets mutates the trace.
func (t *Trace) Windows(w time.Duration, minPackets int) []Window {
	return t.AppendWindows(nil, w, minPackets, true)
}

// AppendWindows appends the windows of the trace to dst and returns
// the extended slice, allowing callers on the classification hot path
// to reuse one scratch buffer across traces (dst[:0]) instead of
// allocating per call. labeled controls whether the majority-label
// pass runs; when false every window's App is zero, which saves the
// counting work for callers that overwrite the label with external
// ground truth (adversary training) or ignore it (attacking flows
// whose truth is keyed by address). Window packet slices alias
// t.Packets (see Windows).
func (t *Trace) AppendWindows(dst []Window, w time.Duration, minPackets int, labeled bool) []Window {
	if w <= 0 {
		panic("trace: window duration must be positive")
	}
	if len(t.Packets) == 0 {
		return dst
	}
	start := t.Packets[0].Time
	lo := 0
	flush := func(hi int, winStart time.Duration) {
		if hi-lo >= minPackets {
			cur := t.Packets[lo:hi:hi]
			win := Window{Start: winStart, W: w, Packets: cur}
			if labeled {
				win.App = majorityApp(cur)
			}
			dst = append(dst, win)
		}
		lo = hi
	}
	// Times are compared by their distance from the window start, so
	// a timestamp near the top of the range cannot overflow start+w.
	for i := range t.Packets {
		for t.Packets[i].Time-start >= w {
			flush(i, start)
			start += w
			if minPackets >= 1 {
				// The windows up to packet i's are empty and would be
				// dropped: step over them at once, not one per loop.
				start += (t.Packets[i].Time - start) / w * w
			}
		}
	}
	flush(len(t.Packets), start)
	return dst
}

func majorityApp(ps []Packet) App {
	var counts [NumApps]int
	for _, p := range ps {
		if int(p.App) < NumApps {
			counts[p.App]++
		}
	}
	best := 0
	for i, c := range counts {
		if c > counts[best] {
			best = i
		}
	}
	return App(best)
}

// Stats summarizes a trace the way Table I of the paper does: average
// packet size (bytes) and average interarrival time (seconds) with
// idle gaps beyond idleCut filtered out.
type Stats struct {
	Packets        int
	AvgSize        float64
	AvgInterarrive float64
}

// Summarize computes Stats. idleCut <= 0 keeps all gaps.
func (t *Trace) Summarize(idleCut time.Duration) Stats {
	s := Stats{Packets: len(t.Packets)}
	if len(t.Packets) == 0 {
		return s
	}
	var bytes int64
	for _, p := range t.Packets {
		bytes += int64(p.Size)
	}
	s.AvgSize = float64(bytes) / float64(len(t.Packets))
	gaps := t.Interarrivals(idleCut)
	if len(gaps) > 0 {
		sum := 0.0
		for _, g := range gaps {
			sum += g
		}
		s.AvgInterarrive = sum / float64(len(gaps))
	}
	return s
}
