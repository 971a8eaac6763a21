package defense

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"trafficreshape/internal/appgen"
	"trafficreshape/internal/stats"
	"trafficreshape/internal/trace"
)

func TestPadToMTU(t *testing.T) {
	tr := appgen.Generate(trace.Chatting, 60*time.Second, 1)
	padded := Pad(tr, MTU)
	if padded.Len() != tr.Len() {
		t.Fatal("padding must not change packet count")
	}
	for i, p := range padded.Packets {
		if p.Size != MTU {
			t.Fatalf("packet %d padded to %d, want %d", i, p.Size, MTU)
		}
		if p.Time != tr.Packets[i].Time || p.Dir != tr.Packets[i].Dir {
			t.Fatal("padding must not touch timing or direction")
		}
	}
	if tr.Packets[0].Size == MTU {
		t.Fatal("test premise broken: chatting should have sub-MTU packets")
	}
}

func TestPadKeepsLargePackets(t *testing.T) {
	tr := trace.New(1)
	tr.Append(trace.Packet{Size: 1576})
	if got := Pad(tr, 1000).Packets[0].Size; got != 1576 {
		t.Fatalf("padding shrank a packet to %d", got)
	}
}

func TestPadValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pad(0) should panic")
		}
	}()
	Pad(trace.New(0), 0)
}

// TestPaddingOverheadMatchesPaper reproduces the Table VI padding
// overheads, which follow analytically from the calibrated mean
// packet sizes: overhead ≈ MTU/mean − 1 over both directions.
func TestPaddingOverheadMatchesPaper(t *testing.T) {
	paper := map[trace.App]float64{ // Table VI "Overhead (%) (Padding)"
		trace.Browsing:    0.5555,
		trace.Chatting:    4.8574,
		trace.Gaming:      2.4296,
		trace.Downloading: 0.0004,
		trace.Uploading:   0.0,
		trace.Video:       0.0184,
		trace.BitTorrent:  0.6382,
	}
	for _, app := range trace.Apps {
		tr := appgen.Generate(app, 300*time.Second, 7)
		got := DominantOverhead(tr, Pad(tr, MTU))
		want := paper[app]
		// Tolerance: a few percent absolute plus sampling slack.
		if math.Abs(got-want) > 0.05+0.1*want {
			t.Errorf("%v padding overhead = %.3f, paper %.3f", app, got, want)
		}
	}
	// Ordering: chatting ≫ gaming ≫ browsing > downloading.
	over := func(app trace.App) float64 {
		tr := appgen.Generate(app, 120*time.Second, 8)
		return DominantOverhead(tr, Pad(tr, MTU))
	}
	if !(over(trace.Chatting) > over(trace.Gaming) &&
		over(trace.Gaming) > over(trace.Browsing) &&
		over(trace.Browsing) > over(trace.Downloading)) {
		t.Error("padding overhead ordering does not match Table VI")
	}
}

// morphCopy returns a copy of src morphed toward target with the
// given morpher seed.
func morphCopy(t testing.TB, target, src *trace.Trace, seed uint64) *trace.Trace {
	t.Helper()
	model, err := NewMorphModel(target)
	if err != nil {
		t.Fatal(err)
	}
	out := src.Clone()
	model.Morpher(seed).ApplyInPlace(out)
	return out
}

func TestMorpherNeverShrinks(t *testing.T) {
	target := appgen.Generate(trace.Gaming, 60*time.Second, 2)
	src := appgen.Generate(trace.Chatting, 60*time.Second, 4)
	morphed := morphCopy(t, target, src, 3)
	if morphed.Len() != src.Len() {
		t.Fatal("morphing must not change packet count")
	}
	for i := range morphed.Packets {
		if morphed.Packets[i].Size < src.Packets[i].Size {
			t.Fatalf("packet %d shrank from %d to %d; morphing cannot split",
				i, src.Packets[i].Size, morphed.Packets[i].Size)
		}
	}
}

func TestMorpherMovesDistributionTowardTarget(t *testing.T) {
	target := appgen.Generate(trace.Gaming, 120*time.Second, 5)
	src := appgen.Generate(trace.Chatting, 120*time.Second, 6)
	morphed := morphCopy(t, target, src, 7)
	// Compare downlink against downlink: morphing (like the
	// classifier) works per direction.
	srcDown, _ := src.ByDirection()
	tgtDown, _ := target.ByDirection()
	morphDown, _ := morphed.ByDirection()
	before := ksDistance(srcDown.Sizes(), tgtDown.Sizes())
	after := ksDistance(morphDown.Sizes(), tgtDown.Sizes())
	if after >= before {
		t.Errorf("morphing did not move the size distribution toward the target: KS %.3f -> %.3f", before, after)
	}
}

func TestMorpherEmptyTarget(t *testing.T) {
	if _, err := NewMorphModel(trace.New(0)); err == nil {
		t.Fatal("empty morph target should fail")
	}
}

func TestPaperMorphChain(t *testing.T) {
	chain := PaperMorphChain()
	// §IV-D: ch→ga, ga→br, br→bt, bt→vo, vo→do; do/up unmorphed.
	want := map[trace.App]trace.App{
		trace.Chatting:   trace.Gaming,
		trace.Gaming:     trace.Browsing,
		trace.Browsing:   trace.BitTorrent,
		trace.BitTorrent: trace.Video,
		trace.Video:      trace.Downloading,
	}
	if len(chain) != len(want) {
		t.Fatalf("chain has %d entries, want %d", len(chain), len(want))
	}
	for src, dst := range want {
		if chain[src] != dst {
			t.Errorf("chain[%v] = %v, want %v", src, chain[src], dst)
		}
	}
	if _, ok := chain[trace.Downloading]; ok {
		t.Error("downloading must not be morphed")
	}
	if _, ok := chain[trace.Uploading]; ok {
		t.Error("uploading must not be morphed")
	}
}

func TestSplit(t *testing.T) {
	tr := trace.New(2)
	tr.Append(trace.Packet{Time: 0, Size: 1576})
	tr.Append(trace.Packet{Time: time.Second, Size: 100})
	split := AppendSplit(new(trace.Trace), tr, 800, 28)
	if split.Len() <= tr.Len() {
		t.Fatal("splitting a 1576-byte packet at 800 must create fragments")
	}
	var bytes int64
	for _, p := range split.Packets {
		if p.Size > 800 {
			t.Fatalf("fragment of %d bytes exceeds split size", p.Size)
		}
		bytes += int64(p.Size)
	}
	if bytes <= tr.Bytes() {
		t.Fatal("splitting must add header overhead")
	}
	if !split.Sorted() {
		t.Fatal("split trace must stay time-sorted")
	}
}

// AppendSplit onto a non-empty or reused destination appends exactly
// what it writes into a fresh one, and orders only what it appended:
// an earlier, later-timed packet in dst stays first. The small packet
// lands between the large one's fragments, so the appended part needs
// its sort.
func TestAppendSplitAppendsSplit(t *testing.T) {
	tr := trace.New(2)
	tr.Append(trace.Packet{Time: 0, Size: 1576})
	tr.Append(trace.Packet{Time: 100 * time.Microsecond, Size: 100})
	want := AppendSplit(new(trace.Trace), tr, 800, 28)
	dst := trace.New(0)
	dst.Append(trace.Packet{Time: time.Hour, Size: 1})
	AppendSplit(dst, tr, 800, 28)
	if dst.Packets[0].Time != time.Hour || !slices.Equal(dst.Packets[1:], want.Packets) {
		t.Fatalf("AppendSplit onto one packet = %v, want it followed by %v", dst.Packets, want.Packets)
	}
	dst.Packets = dst.Packets[:0]
	if AppendSplit(dst, tr, 800, 28); !slices.Equal(dst.Packets, want.Packets) {
		t.Fatalf("AppendSplit into a reused trace = %v, want %v", dst.Packets, want.Packets)
	}
}

// AppendSplit on an unsorted, captured-style trace (late packets, runs
// of equal times) equals splitting every packet on its own, in input
// order, and stable-sorting the fragments afterwards. A single
// packet's fragments are already in time order, so each one-packet
// split is exactly the fragments AppendSplit emits for that packet.
func TestAppendSplitUnsortedMatchesSortAfterSplit(t *testing.T) {
	tr := appgen.Generate(trace.Downloading, 20*time.Second, 3)
	r := stats.NewRNG(5)
	for i := range tr.Packets {
		if r.Intn(8) == 0 { // a late capture: stamped up to 2 ms early
			tr.Packets[i].Time -= time.Duration(r.Intn(2000)) * time.Microsecond
		}
		if i > 0 && r.Intn(6) == 0 {
			tr.Packets[i].Time = tr.Packets[i-1].Time
		}
		tr.Packets[i].Seq = uint16(i)
	}
	if tr.Sorted() {
		t.Fatal("fixture is sorted")
	}
	var want []trace.Packet
	for _, p := range tr.Packets {
		one := trace.Trace{Packets: []trace.Packet{p}}
		want = AppendSplit(&trace.Trace{Packets: want}, &one, 500, 28).Packets
	}
	slices.SortStableFunc(want, func(a, b trace.Packet) int { return cmp.Compare(a.Time, b.Time) })
	if got := AppendSplit(new(trace.Trace), tr, 500, 28); !slices.Equal(got.Packets, want) {
		t.Fatal("AppendSplit differs from a stable sort after splitting")
	}
}

func TestSplitSmallPacketsUntouched(t *testing.T) {
	tr := trace.New(1)
	tr.Append(trace.Packet{Size: 100})
	split := AppendSplit(new(trace.Trace), tr, 800, 28)
	if split.Len() != 1 || split.Packets[0].Size != 100 {
		t.Fatal("packets below the split size must pass through")
	}
}

func TestSplitValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AppendSplit with maxSize <= header should panic")
		}
	}()
	AppendSplit(new(trace.Trace), trace.New(0), 28, 28)
}

// dominantOverheadReference is DominantOverhead as it was written over
// ByDirection copies of both traces.
func dominantOverheadReference(before, after *trace.Trace) float64 {
	bd, bu := before.ByDirection()
	ad, au := after.ByDirection()
	if bu.Bytes() > bd.Bytes() {
		return Overhead(bu, au)
	}
	return Overhead(bd, ad)
}

// TestDominantOverheadMatchesReference pins the one-pass byte sums to
// the ByDirection reference over random, single-direction, empty and
// tied traces.
func TestDominantOverheadMatchesReference(t *testing.T) {
	build := func(dirs []trace.Direction, sizes []int32) *trace.Trace {
		tr := trace.New(len(sizes))
		for i, size := range sizes {
			tr.Append(trace.Packet{Time: time.Duration(i), Size: size, Dir: dirs[i]})
		}
		return tr
	}
	check := func(label string, before, after *trace.Trace) float64 {
		t.Helper()
		got, want := DominantOverhead(before, after), dominantOverheadReference(before, after)
		if got != want {
			t.Fatalf("%s: DominantOverhead = %v, reference %v", label, got, want)
		}
		return got
	}

	r := stats.NewRNG(17)
	for round := 0; round < 200; round++ {
		n := r.Intn(40)
		dirs := make([]trace.Direction, n)
		sizes, grown := make([]int32, n), make([]int32, n)
		for i := range dirs {
			switch round % 3 {
			case 0:
				dirs[i] = trace.Direction(r.Intn(2))
			case 1:
				dirs[i] = trace.Uplink
			default:
				dirs[i] = trace.Downlink
			}
			sizes[i] = int32(r.Intn(MTU + 1))
			grown[i] = sizes[i] + int32(r.Intn(MTU))
		}
		before := build(dirs, sizes)
		check("random", before, build(dirs, grown))
		check("padded", before, Pad(before, MTU))
	}
	check("empty", trace.New(0), trace.New(0))

	// Equal bytes per direction: the tie goes to downlink.
	dirs := []trace.Direction{trace.Downlink, trace.Uplink}
	if got := check("tie", build(dirs, []int32{100, 100}), build(dirs, []int32{200, 300})); got != 1 {
		t.Fatalf("tied directions priced at %v, want the downlink's 1", got)
	}
}

// Property: padding is idempotent and monotone in byte count.
func TestPadProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		r := stats.NewRNG(seed)
		tr := trace.New(0)
		for i := 0; i < int(n)+1; i++ {
			tr.Append(trace.Packet{Size: int32(r.IntRange(28, 1576))})
		}
		once := Pad(tr, MTU)
		twice := Pad(once, MTU)
		if once.Bytes() != twice.Bytes() {
			return false
		}
		return once.Bytes() >= tr.Bytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: morphing never shrinks any packet and never changes count.
func TestMorphProperty(t *testing.T) {
	target := appgen.Generate(trace.Video, 30*time.Second, 12)
	f := func(seed uint64, n uint8) bool {
		r := stats.NewRNG(seed)
		tr := trace.New(0)
		for i := 0; i < int(n)+1; i++ {
			tr.Append(trace.Packet{Size: int32(r.IntRange(28, 1576))})
		}
		morphed := morphCopy(t, target, tr, seed)
		if morphed.Len() != tr.Len() {
			return false
		}
		for i := range morphed.Packets {
			if morphed.Packets[i].Size < tr.Packets[i].Size {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// ksDistance returns the Kolmogorov–Smirnov statistic between two
// empirical samples: the max absolute difference of their CDFs.
func ksDistance(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	sa := append([]float64(nil), a...)
	sb := append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	var d float64
	i, j := 0, 0
	for i < len(sa) && j < len(sb) {
		// Advance past all ties at the smaller value before comparing
		// the empirical CDFs, so equal samples never create a gap.
		v := sa[i]
		if sb[j] < v {
			v = sb[j]
		}
		for i < len(sa) && sa[i] == v {
			i++
		}
		for j < len(sb) && sb[j] == v {
			j++
		}
		fa := float64(i) / float64(len(sa))
		fb := float64(j) / float64(len(sb))
		if diff := math.Abs(fa - fb); diff > d {
			d = diff
		}
	}
	return d
}
