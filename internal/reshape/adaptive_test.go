package reshape

import (
	"fmt"
	"math"
	"testing"
	"time"

	"trafficreshape/internal/appgen"
	"trafficreshape/internal/stats"
	"trafficreshape/internal/trace"
)

func TestAdaptiveValidation(t *testing.T) {
	for _, tc := range []struct{ i, period int }{{0, 10}, {3, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewAdaptive(%d, %d) should panic", tc.i, tc.period)
				}
			}()
			NewAdaptive(tc.i, tc.period)
		}()
	}
}

func TestAdaptivePartition(t *testing.T) {
	tr := appgen.Generate(trace.BitTorrent, 60*time.Second, 101)
	a := NewAdaptive(3, 500)
	parts := Apply(a, tr)
	total := 0
	for _, p := range parts {
		total += p.Len()
	}
	if total != tr.Len() {
		t.Fatalf("adaptive partition lost packets: %d vs %d", total, tr.Len())
	}
}

// TestAdaptiveBalancesMultiModalFlows: the paper's fixed ranges put
// 54% of BitTorrent on one interface and only 6% on another
// (Figure 4's middle interface); quantile adaptation levels the load
// toward 1/I per interface.
func TestAdaptiveBalancesMultiModalFlows(t *testing.T) {
	tr := appgen.Generate(trace.BitTorrent, 60*time.Second, 102)
	down, _ := tr.ByDirection()

	fixedParts := Apply(Recommended(), down)
	fixedMin := 1.0
	for _, p := range fixedParts {
		if f := float64(p.Len()) / float64(down.Len()); f < fixedMin {
			fixedMin = f
		}
	}
	if fixedMin > 0.15 {
		t.Fatalf("premise: fixed ranges should starve one interface on BT (got min share %.2f)", fixedMin)
	}

	a := NewAdaptive(3, 500)
	adaptiveParts := Apply(a, down)
	for i, p := range adaptiveParts {
		f := float64(p.Len()) / float64(down.Len())
		if f < 0.15 || f > 0.55 {
			t.Errorf("adaptive interface %d share = %.2f, want roughly balanced thirds", i, f)
		}
	}
}

// TestAdaptiveCannotBalancePointMass documents the inherent limit of
// size-deterministic scheduling: a flow whose sizes are (nearly) a
// point mass — pure bulk download — cannot be balanced by ANY
// size-range partition, adaptive or not. The scheduler must stay
// valid; concentration is expected.
func TestAdaptiveCannotBalancePointMass(t *testing.T) {
	tr := appgen.Generate(trace.Downloading, 10*time.Second, 105)
	down, _ := tr.ByDirection()
	a := NewAdaptive(3, 500)
	parts := Apply(a, down)
	total := 0
	maxShare := 0.0
	for _, p := range parts {
		total += p.Len()
		if f := float64(p.Len()) / float64(down.Len()); f > maxShare {
			maxShare = f
		}
	}
	if total != down.Len() {
		t.Fatal("partition lost packets")
	}
	// The first epoch still runs on the paper's fixed ranges, so a
	// small fraction lands elsewhere before adaptation kicks in.
	if maxShare < 0.8 {
		t.Errorf("point-mass traffic unexpectedly balanced (max share %.2f); size-deterministic scheduling cannot do this", maxShare)
	}
}

func TestAdaptiveEdgesStayValid(t *testing.T) {
	a := NewAdaptive(3, 100)
	tr := appgen.Generate(trace.Browsing, 30*time.Second, 103)
	for _, p := range tr.Packets {
		idx := a.Assign(p)
		if idx < 0 || idx >= 3 {
			t.Fatalf("assignment %d out of range", idx)
		}
		if err := a.edges.Validate(); err != nil {
			t.Fatalf("edges became invalid after adaptation: %v", err)
		}
	}
}

// TestAdaptiveDegenerateTraffic: constant-size traffic must not
// produce zero-width ranges.
func TestAdaptiveDegenerateTraffic(t *testing.T) {
	a := NewAdaptive(3, 50)
	for i := 0; i < 500; i++ {
		idx := a.Assign(trace.Packet{Size: 1576})
		if idx < 0 || idx >= 3 {
			t.Fatalf("assignment %d out of range", idx)
		}
	}
	if err := a.edges.Validate(); err != nil {
		t.Fatalf("degenerate traffic broke edges: %v (%v)", err, a.edges)
	}
}

// adversarialSizeStreams are size distributions chosen to stress the
// rederive clamping: quantile collapse (all-equal sizes, at and below
// ℓ_max), sizes above the MTU, minimal periods, and mixtures.
func adversarialSizeStreams() map[string][]int {
	streams := map[string][]int{
		"all-lmax":       repeatSize(LMax, 400),
		"all-small":      repeatSize(40, 400),
		"above-mtu":      repeatSize(5000, 400),
		"near-lmax-pair": nil,
		"descending":     nil,
		"mixed-extreme":  nil,
	}
	pair := make([]int, 0, 400)
	for i := 0; i < 200; i++ {
		pair = append(pair, LMax-1, LMax)
	}
	streams["near-lmax-pair"] = pair
	desc := make([]int, 0, 400)
	for i := 0; i < 400; i++ {
		desc = append(desc, 4000-i*7)
	}
	streams["descending"] = desc
	mixed := make([]int, 0, 400)
	for i := 0; i < 100; i++ {
		mixed = append(mixed, 1, LMax, 9000, LMax-1)
	}
	streams["mixed-extreme"] = mixed
	return streams
}

func repeatSize(size, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = size
	}
	return out
}

// TestAdaptiveEdgesPropertyAdversarial: after EVERY Assign, for every
// interface count and adversarial distribution, the edges pass
// Ranges.Validate, hold exactly i entries, and live in (0, ℓ_max].
// This pins the rederive cap fix: the old code emitted a final edge of
// prev+1 > ℓ_max whenever the top quantile hit ℓ_max.
func TestAdaptiveEdgesPropertyAdversarial(t *testing.T) {
	for name, sizes := range adversarialSizeStreams() {
		for _, i := range []int{1, 2, 3, 5, 7, 16} {
			// period == i is the tightest legal epoch: a full
			// re-derivation from every i packets ("single-packet"
			// quantile slices).
			for _, period := range []int{i, 50} {
				a := NewAdaptive(i, period)
				for k, size := range sizes {
					idx := a.Assign(trace.Packet{Size: int32(size)})
					if idx < 0 || idx >= i {
						t.Fatalf("%s i=%d period=%d pkt %d: assignment %d out of range", name, i, period, k, idx)
					}
					edges := a.edges
					if err := edges.Validate(); err != nil {
						t.Fatalf("%s i=%d period=%d pkt %d: invalid edges %v: %v", name, i, period, k, edges, err)
					}
					if len(edges) != i {
						t.Fatalf("%s i=%d period=%d pkt %d: %d edges, want exactly %d", name, i, period, k, len(edges), i)
					}
					for _, e := range edges {
						if e <= 0 || e > LMax {
							t.Fatalf("%s i=%d period=%d pkt %d: edge %d outside (0, %d]", name, i, period, k, e, LMax)
						}
					}
				}
			}
		}
	}
}

// TestAdaptiveApplyLosslessAcrossEpochs: the partition property of
// §III-C1 (∪ S_i = S, disjoint) must survive epoch re-derivations,
// including under adversarial size distributions.
func TestAdaptiveApplyLosslessAcrossEpochs(t *testing.T) {
	for name, sizes := range adversarialSizeStreams() {
		tr := trace.New(len(sizes))
		for k, size := range sizes {
			tr.Append(trace.Packet{Time: time.Duration(k) * time.Millisecond, Size: int32(size)})
		}
		a := NewAdaptive(3, 50) // many epochs over 400 packets
		parts := Apply(a, tr)
		total := 0
		var bytes int64
		for _, p := range parts {
			total += p.Len()
			bytes += p.Bytes()
		}
		if total != tr.Len() || bytes != tr.Bytes() {
			t.Errorf("%s: partition lost traffic: %d/%d packets, %d/%d bytes",
				name, total, tr.Len(), bytes, tr.Bytes())
		}
		if got := a.Epochs(); got != len(sizes)/50 {
			t.Errorf("%s: %d epochs, want %d", name, got, len(sizes)/50)
		}
	}
}

// TestAdaptiveDiagnostics: seen counts every assigned packet and
// Epochs every re-derivation — the counters the streaming daemon's
// per-flow metrics surface.
func TestAdaptiveDiagnostics(t *testing.T) {
	a := NewAdaptive(3, 100)
	if a.seen != 0 || a.Epochs() != 0 {
		t.Fatalf("fresh scheduler reports seen=%d epochs=%d", a.seen, a.Epochs())
	}
	for k := 0; k < 450; k++ {
		a.Assign(trace.Packet{Size: int32(100 + k%1400)})
	}
	if a.seen != 450 {
		t.Errorf("seen = %d, want 450", a.seen)
	}
	if a.Epochs() != 4 {
		t.Errorf("epochs = %d, want 4", a.Epochs())
	}
}

// TestAdaptiveRejectsImpossibleInterfaceCount: more interfaces than
// integer edges fit in (0, ℓ_max] cannot be partitioned.
func TestAdaptiveRejectsImpossibleInterfaceCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewAdaptive(LMax+1, ...) should panic")
		}
	}()
	NewAdaptive(LMax+1, 2*LMax)
}

// TestAdaptiveAssignSteadyStateAllocFree: the daemon runs one
// Adaptive per flow on its per-packet hot path; Assign — including
// the amortized rederive — must not touch the heap in steady state.
func TestAdaptiveAssignSteadyStateAllocFree(t *testing.T) {
	a := NewAdaptive(3, 64)
	sizes := []int{40, 120, 520, 1040, 1576, 5000}
	k := 0
	for ; k < 256; k++ { // warm: fill scratch, cross epochs
		a.Assign(trace.Packet{Size: int32(sizes[k%len(sizes)])})
	}
	allocs := testing.AllocsPerRun(50, func() {
		for j := 0; j < 64; j++ { // one full epoch per run
			a.Assign(trace.Packet{Size: int32(sizes[k%len(sizes)])})
			k++
		}
	})
	if allocs != 0 {
		t.Fatalf("Assign allocates %.1f times per 64-packet epoch, want 0", allocs)
	}
}

func TestAdaptiveChangesSubflowStats(t *testing.T) {
	// After adaptation, per-interface mean sizes differ from the
	// original mean (the defense property), like fixed OR.
	tr := appgen.Generate(trace.BitTorrent, 60*time.Second, 104)
	origMean := 0.0
	for _, p := range tr.Packets {
		origMean += float64(p.Size)
	}
	origMean /= float64(tr.Len())
	parts := Apply(NewAdaptive(3, 1000), tr)
	shifted := 0
	for _, p := range parts {
		if p.Len() == 0 {
			continue
		}
		m := 0.0
		for _, pk := range p.Packets {
			m += float64(pk.Size)
		}
		m /= float64(p.Len())
		if math.Abs(m-origMean)/origMean > 0.2 {
			shifted++
		}
	}
	if shifted < 2 {
		t.Errorf("only %d interfaces shifted their mean size away from the original", shifted)
	}
}

// TestAdaptiveBinTableMatchesBinOf: the table Assign routes by answers
// exactly what BinOf answers on the current edges, for every size in
// [-1, LMax+1] — after construction, after each re-derivation of a
// random size stream, and after a State/RestoreAdaptive round trip.
// 300 interfaces need range indices a uint8 table cannot hold.
func TestAdaptiveBinTableMatchesBinOf(t *testing.T) {
	check := func(a *Adaptive, when string) {
		t.Helper()
		for s := -1; s <= LMax+1; s++ {
			if got, want := a.binOf(s), a.edges.BinOf(s); got != want {
				t.Fatalf("i=%d %s: size %d routes to %d, BinOf says %d (edges %v)", a.i, when, s, got, want, a.edges)
			}
		}
	}
	for _, i := range []int{1, 2, 3, 16, 300} {
		period := max(64, 2*i)
		a := NewAdaptive(i, period)
		check(a, "after NewAdaptive")
		r := stats.NewRNG(uint64(i))
		for k := 0; k < 6*period; k++ {
			epochs := a.Epochs()
			a.Assign(trace.Packet{Size: int32(r.IntRange(-5, LMax+50))})
			if a.Epochs() != epochs {
				check(a, fmt.Sprintf("after epoch %d", a.Epochs()))
			}
		}
		if i == 300 && a.edges.BinOf(LMax) < 256 {
			t.Fatalf("i=300: top range %d fits a uint8; the stream did not spread the edges", a.edges.BinOf(LMax))
		}
		b, err := RestoreAdaptive(a.State())
		if err != nil {
			t.Fatal(err)
		}
		check(b, "after RestoreAdaptive")
	}
}
