package defense

// Equivalence tests pinning the table-driven morpher bit-identical to
// a frozen reference implementation: a per-packet binary search over
// the sorted target sample, with the target split by ByDirection. The
// O(1) firstGE lookup, the one-pass per-direction sample collection,
// ApplyInPlace and the shared-MorphModel construction must all
// reproduce its sizes and its RNG consumption exactly.

import (
	"testing"
	"testing/quick"
	"time"

	"trafficreshape/internal/appgen"
	"trafficreshape/internal/stats"
	"trafficreshape/internal/trace"
)

// referenceMorpher is the reference Morpher: sorted per-direction
// samples plus a per-packet binary search.
type referenceMorpher struct {
	targetDown []int
	targetUp   []int
	rng        *stats.RNG
}

func newReferenceMorpher(target *trace.Trace, seed uint64) (*referenceMorpher, error) {
	if target.Len() == 0 {
		return nil, errEmptyTarget
	}
	down, up := target.ByDirection()
	collect := func(tr *trace.Trace) []int {
		sizes := make([]int, tr.Len())
		for i, p := range tr.Packets {
			sizes[i] = int(p.Size)
		}
		sortInts(sizes)
		return sizes
	}
	m := &referenceMorpher{
		targetDown: collect(down),
		targetUp:   collect(up),
		rng:        stats.NewRNG(seed),
	}
	if len(m.targetDown) == 0 {
		m.targetDown = collect(target)
	}
	if len(m.targetUp) == 0 {
		m.targetUp = collect(target)
	}
	return m, nil
}

var errEmptyTarget = &emptyTargetError{}

type emptyTargetError struct{}

func (*emptyTargetError) Error() string { return "defense: empty morphing target" }

func (m *referenceMorpher) morphSize(size int, dir trace.Direction) int {
	targets := m.targetDown
	if dir == trace.Uplink {
		targets = m.targetUp
	}
	lo, hi := 0, len(targets)
	for lo < hi {
		mid := (lo + hi) / 2
		if targets[mid] < size {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(targets) {
		return size
	}
	idx := lo + m.rng.Intn(len(targets)-lo)
	return targets[idx]
}

func (m *referenceMorpher) Apply(tr *trace.Trace) *trace.Trace {
	out := tr.Clone()
	for i := range out.Packets {
		out.Packets[i].Size = int32(m.morphSize(int(out.Packets[i].Size), out.Packets[i].Dir))
	}
	return out
}

// TestMorphSizeMatchesReference drives both implementations through
// the same (size, direction) stream — including the boundary sizes 0,
// MTU, MTU+1 and above-clamp values — and demands identical sizes,
// which also proves identical RNG consumption (one divergent draw
// desynchronizes every later size). Targets are generated traces,
// single-direction traces (the missing direction takes the other's
// sample) and one-packet traces.
func TestMorphSizeMatchesReference(t *testing.T) {
	f := func(seed uint64, targetSeed, shape uint8) bool {
		target := appgen.Generate(trace.App(targetSeed%7), 30*time.Second, uint64(targetSeed))
		switch shape % 4 {
		case 1, 2:
			for i := range target.Packets {
				target.Packets[i].Dir = trace.Direction(shape%4 - 1)
			}
		case 3:
			i := int(seed % uint64(target.Len()))
			target.Packets = target.Packets[i : i+1]
		}
		ref, err1 := newReferenceMorpher(target, seed)
		model, err2 := NewMorphModel(target)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		m := model.Morpher(seed)
		probe := stats.NewRNG(seed ^ 0x5eed)
		for i := 0; i < 400; i++ {
			var size int
			switch i % 8 {
			case 0:
				size = 0
			case 1:
				size = MTU
			case 2:
				size = MTU + 1
			case 3:
				size = MTU + 1 + probe.Intn(500)
			default:
				size = probe.Intn(MTU + 2)
			}
			dir := trace.Downlink
			if probe.Intn(2) == 1 {
				dir = trace.Uplink
			}
			if ref.morphSize(size, dir) != m.morphSize(size, dir) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestMorphSizeJumboTargetMatchesReference covers targets with sizes
// above MTU+1 — NewMorphModel accepts any trace, including captured
// ones with jumbo frames. Both implementations clamp target samples
// to MTU+1 inside sortInts, so the table's bounded [0, MTU+1] domain
// stays total: jumbo source sizes find no target mass and keep their
// value (consuming no draw), sub-clamp sizes can morph up to the
// clamped MTU+1 mass, and sizes and RNG consumption match the
// reference exactly throughout.
func TestMorphSizeJumboTargetMatchesReference(t *testing.T) {
	target := trace.New(0)
	for i, size := range []int{64, 700, MTU, MTU + 1, 2000, 3000, 9000} {
		dir := trace.Downlink
		if i%2 == 1 {
			dir = trace.Uplink
		}
		target.Append(trace.Packet{Time: time.Duration(i) * time.Millisecond, Size: int32(size), Dir: dir})
	}
	const seed = 31
	ref, err := newReferenceMorpher(target, seed)
	if err != nil {
		t.Fatal(err)
	}
	model, err := NewMorphModel(target)
	if err != nil {
		t.Fatal(err)
	}
	m := model.Morpher(seed)
	probe := stats.NewRNG(seed)
	morphedToClamp := false
	for i := 0; i < 600; i++ {
		var size int
		switch i % 4 {
		case 0:
			size = 1500 // below the clamped jumbo mass at MTU+1
		case 1:
			size = 2500 // above every (clamped) target sample
		case 2:
			size = 9001
		default:
			size = probe.Intn(10000)
		}
		dir := trace.Downlink
		if probe.Intn(2) == 1 {
			dir = trace.Uplink
		}
		want := ref.morphSize(size, dir)
		got := m.morphSize(size, dir)
		if got != want {
			t.Fatalf("size %d dir %v: got %d, reference %d", size, dir, got, want)
		}
		if size > MTU+1 && got != size {
			t.Fatalf("size %d dir %v morphed to %d; above-clamp sizes must keep their value", size, dir, got)
		}
		if size <= MTU && got == MTU+1 {
			morphedToClamp = true // the clamped jumbo mass is reachable
		}
	}
	if !morphedToClamp {
		t.Fatal("no probe morphed into the clamped MTU+1 mass; test lost its teeth")
	}
}

// TestMorphApplyVariantsMatchReference pins ApplyInPlace, on a clone
// and on a reused scratch trace refilled per pass (Table VI's shape),
// against the reference's cloned Apply, packet for packet.
func TestMorphApplyVariantsMatchReference(t *testing.T) {
	target := appgen.Generate(trace.Gaming, 120*time.Second, 5)
	src := appgen.Generate(trace.Chatting, 120*time.Second, 6)
	const seed = 77

	ref, err := newReferenceMorpher(target, seed)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Apply(src)

	model, err := NewMorphModel(target)
	if err != nil {
		t.Fatal(err)
	}
	sameAs := func(label string, got *trace.Trace) {
		t.Helper()
		if got.Len() != want.Len() {
			t.Fatalf("%s: %d packets, reference %d", label, got.Len(), want.Len())
		}
		for i := range got.Packets {
			if got.Packets[i] != want.Packets[i] {
				t.Fatalf("%s: packet %d = %+v, reference %+v", label, i, got.Packets[i], want.Packets[i])
			}
		}
	}

	inPlace := src.Clone()
	model.Morpher(seed).ApplyInPlace(inPlace)
	sameAs("ApplyInPlace/clone", inPlace)

	var scratch trace.Trace
	for pass := 0; pass < 3; pass++ {
		scratch.Packets = append(scratch.Packets[:0], src.Packets...)
		model.Morpher(seed).ApplyInPlace(&scratch)
		sameAs("ApplyInPlace/scratch", &scratch)
	}
}

// TestMorphModelSharedAcrossMorphers proves the per-cell pattern the
// experiment grid uses — one immutable model, many seeds — matches a
// reference morpher built from scratch per seed.
func TestMorphModelSharedAcrossMorphers(t *testing.T) {
	target := appgen.Generate(trace.Video, 60*time.Second, 13)
	src := appgen.Generate(trace.Browsing, 60*time.Second, 14)
	model, err := NewMorphModel(target)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 16; seed++ {
		fresh, err := newReferenceMorpher(target, seed)
		if err != nil {
			t.Fatal(err)
		}
		want := fresh.Apply(src)
		got := src.Clone()
		model.Morpher(seed).ApplyInPlace(got)
		for i := range got.Packets {
			if got.Packets[i] != want.Packets[i] {
				t.Fatalf("seed %d: shared-model morph diverges at packet %d", seed, i)
			}
		}
	}
}

// TestMorphApplyInPlaceAllocFree pins the steady-state zero-allocation
// contract of morphing a reused scratch copy in place.
func TestMorphApplyInPlaceAllocFree(t *testing.T) {
	target := appgen.Generate(trace.Gaming, 60*time.Second, 2)
	src := appgen.Generate(trace.Chatting, 60*time.Second, 4)
	model, err := NewMorphModel(target)
	if err != nil {
		t.Fatal(err)
	}
	m := model.Morpher(3)
	scratch := src.Clone()
	if allocs := testing.AllocsPerRun(50, func() {
		scratch.Packets = append(scratch.Packets[:0], src.Packets...)
		m.ApplyInPlace(scratch)
	}); allocs != 0 {
		t.Fatalf("ApplyInPlace allocates %.1f times per run, want 0", allocs)
	}
}
