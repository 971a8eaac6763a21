package reshape

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"trafficreshape/internal/appgen"
	"trafficreshape/internal/stats"
	"trafficreshape/internal/trace"
)

func btTrace(t *testing.T) *trace.Trace {
	t.Helper()
	return appgen.Generate(trace.BitTorrent, 60*time.Second, 4242)
}

// checkPartition asserts the §III-C1 property: ∪S_i = S, S_i∩S_j = ∅,
// with packets unmodified.
func checkPartition(t *testing.T, original *trace.Trace, parts []*trace.Trace) {
	t.Helper()
	total := 0
	for _, p := range parts {
		total += p.Len()
	}
	if total != original.Len() {
		t.Fatalf("partition lost packets: %d vs %d", total, original.Len())
	}
	merged := trace.Merge(parts...)
	if merged.Len() != original.Len() {
		t.Fatalf("merged partition length %d, want %d", merged.Len(), original.Len())
	}
	for i := range merged.Packets {
		if merged.Packets[i] != original.Packets[i] {
			t.Fatalf("packet %d modified by scheduling: %+v vs %+v", i, merged.Packets[i], original.Packets[i])
		}
	}
}

func TestRandomPartition(t *testing.T) {
	tr := btTrace(t)
	s := NewRandom(3, 7)
	parts := Apply(s, tr)
	checkPartition(t, tr, parts)
	// RA spreads roughly uniformly.
	for i, p := range parts {
		frac := float64(p.Len()) / float64(tr.Len())
		if math.Abs(frac-1.0/3) > 0.05 {
			t.Errorf("RA interface %d has fraction %.3f, want ~1/3", i, frac)
		}
	}
}

func TestRandomPreservesSizeDistribution(t *testing.T) {
	// The paper's criticism of RA: per-interface average packet size
	// is almost unchanged, so classification still succeeds.
	tr := btTrace(t)
	parts := Apply(NewRandom(3, 8), tr)
	origMean := stats.Mean(tr.Sizes())
	for i, p := range parts {
		m := stats.Mean(p.Sizes())
		if math.Abs(m-origMean)/origMean > 0.1 {
			t.Errorf("RA interface %d mean size %.1f strays from original %.1f", i, m, origMean)
		}
	}
}

func TestRoundRobinCycles(t *testing.T) {
	s := NewRoundRobin(3)
	for k := 0; k < 12; k++ {
		if got := s.Assign(trace.Packet{}); got != k%3 {
			t.Fatalf("RR assignment %d = %d, want %d", k, got, k%3)
		}
	}
}

func TestRoundRobinPartition(t *testing.T) {
	tr := btTrace(t)
	parts := Apply(NewRoundRobin(3), tr)
	checkPartition(t, tr, parts)
	for i := 1; i < len(parts); i++ {
		if d := parts[0].Len() - parts[i].Len(); d < -1 || d > 1 {
			t.Errorf("RR imbalance between interface 0 and %d: %d", i, d)
		}
	}
}

func TestOrthogonalByRange(t *testing.T) {
	// The Figure 4 configuration: BT over equal thirds of (0, 1576].
	ranges := EqualRanges(1576, 3)
	want := Ranges{525, 1050, 1576}
	for i := range want {
		if ranges[i] != want[i] {
			t.Fatalf("EqualRanges = %v, want %v (paper Figure 4)", ranges, want)
		}
	}
	o, err := NewOrthogonal(ranges)
	if err != nil {
		t.Fatal(err)
	}
	tr := btTrace(t)
	parts := Apply(o, tr)
	checkPartition(t, tr, parts)
	// Every interface holds only packets of its own range.
	for i, p := range parts {
		lo := 0
		if i > 0 {
			lo = ranges[i-1]
		}
		hi := ranges[i]
		for _, pkt := range p.Packets {
			if int(pkt.Size) <= lo || int(pkt.Size) > hi {
				t.Fatalf("interface %d got packet of %d bytes outside (%d, %d]", i, pkt.Size, lo, hi)
			}
		}
	}
	// All three interfaces are populated for BitTorrent (Figure 4
	// shows three non-empty histograms).
	for i, p := range parts {
		if p.Len() == 0 {
			t.Errorf("interface %d empty for BT under Figure 4 ranges", i)
		}
	}
}

func TestOrthogonalTargetsSatisfyEq2(t *testing.T) {
	o, err := NewOrthogonal(PaperRanges3())
	if err != nil {
		t.Fatal(err)
	}
	targets := o.Targets()
	if len(targets) != 3 {
		t.Fatalf("got %d targets, want 3", len(targets))
	}
	if !AllOrthogonal(targets) {
		t.Fatal("OR targets must be pairwise orthogonal (Eq. 2)")
	}
	// φ1=[1,0,0], φ2=[0,1,0], φ3=[0,0,1] per §IV-B.
	for i := range targets {
		for j := range targets[i] {
			want := 0.0
			if i == j {
				want = 1.0
			}
			if targets[i][j] != want {
				t.Fatalf("φ^%d_%d = %v, want %v", i+1, j+1, targets[i][j], want)
			}
		}
	}
}

func TestOrthogonalAchievesZeroObjective(t *testing.T) {
	// §III-C2: OR attains the optimum of Eq. (1) online, with
	// p^i_j = φ^i_j exactly.
	o, err := NewOrthogonal(PaperRanges3())
	if err != nil {
		t.Fatal(err)
	}
	tr := btTrace(t)
	parts := Apply(o, tr)
	targets := o.Targets()
	measured := make([]Distribution, len(parts))
	for i, p := range parts {
		measured[i] = Measure(p, o.ranges)
	}
	if obj := Objective(targets, measured); obj > 1e-9 {
		t.Errorf("OR objective = %v, want 0 (optimal by construction)", obj)
	}
}

func TestOrthogonalMapped(t *testing.T) {
	// L=5 ranges over I=3 interfaces: ranges 0,1 → if0; 2,3 → if1;
	// 4 → if2. Orthogonality still holds (no range has two owners).
	o, err := NewOrthogonalMapped(PaperRanges5(), []int{0, 0, 1, 1, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !AllOrthogonal(o.Targets()) {
		t.Fatal("mapped OR targets must stay orthogonal")
	}
	tr := btTrace(t)
	checkPartition(t, tr, Apply(o, tr))
}

// TestOrthogonalTableMatchesBinOf pins Orthogonal's routing table to
// the edge scan it replaced: every size from -1 to one past the top
// edge goes to the owner of its BinOf range, for the paper's range
// sets, the equal thirds, a set whose top edge is above LMax, and a
// mapped set with L > I.
func TestOrthogonalTableMatchesBinOf(t *testing.T) {
	select2, err := SelectRanges(2)
	if err != nil {
		t.Fatal(err)
	}
	select5, err := SelectRanges(5)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		ranges  Ranges
		ifaceOf []int
	}{
		{"PaperRanges3", PaperRanges3(), []int{0, 1, 2}},
		{"SelectRanges(2)", select2, []int{0, 1}},
		{"SelectRanges(5)", select5, []int{0, 1, 2, 3, 4}},
		{"EqualRanges(1576, 3)", EqualRanges(1576, 3), []int{0, 1, 2}},
		{"above LMax", Ranges{300, LMax + 24, 2400}, []int{0, 1, 2}},
		{"mapped", PaperRanges5(), []int{2, 0, 1, 0, 1}},
	}
	for _, c := range cases {
		o, err := NewOrthogonalMapped(c.ranges, c.ifaceOf, slices.Max(c.ifaceOf)+1)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		top := c.ranges[len(c.ranges)-1]
		for size := -1; size <= top+1; size++ {
			want := c.ifaceOf[c.ranges.BinOf(size)]
			if got := o.Assign(trace.Packet{Size: int32(size)}); got != want {
				t.Fatalf("%s: size %d routed to interface %d, want %d", c.name, size, got, want)
			}
		}
	}
}

func TestOrthogonalMappedValidation(t *testing.T) {
	if _, err := NewOrthogonalMapped(PaperRanges3(), []int{0, 1}, 3); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := NewOrthogonalMapped(PaperRanges3(), []int{0, 1, 5}, 3); err == nil {
		t.Error("out-of-range interface should fail")
	}
	if _, err := NewOrthogonalMapped(Ranges{100, 50, 200}, []int{0, 1, 2}, 3); err == nil {
		t.Error("non-ascending ranges should fail")
	}
	if _, err := NewOrthogonalMapped(PaperRanges3(), []int{0, 1, 2}, 0); err == nil {
		t.Error("zero interfaces should fail")
	}
	if _, err := NewOrthogonal(Ranges{232, maxOrthogonalEdge + 1}); err == nil {
		t.Error("a top edge past the routing table's bound should fail")
	}
	if _, err := NewOrthogonal(Ranges{232, maxOrthogonalEdge}); err != nil {
		t.Errorf("a top edge at the routing table's bound failed: %v", err)
	}
}

func TestRangesBinOf(t *testing.T) {
	r := PaperRanges3()
	cases := []struct{ size, want int }{
		{1, 0}, {232, 0}, {233, 1}, {1540, 1}, {1541, 2}, {1576, 2}, {9000, 2},
	}
	for _, tc := range cases {
		if got := r.BinOf(tc.size); got != tc.want {
			t.Errorf("BinOf(%d) = %d, want %d", tc.size, got, tc.want)
		}
	}
}

func TestModuloScheduler(t *testing.T) {
	// Figure 5: i = mod[L(s_k), I].
	m := NewModulo(3)
	for _, size := range []int{100, 101, 102, 1575, 1576} {
		if got := m.Assign(trace.Packet{Size: int32(size)}); got != size%3 {
			t.Fatalf("modulo assignment for size %d = %d, want %d", size, got, size%3)
		}
	}
	tr := btTrace(t)
	parts := Apply(m, tr)
	checkPartition(t, tr, parts)
	// Figure 5's point: every interface spans the full size range.
	for i, p := range parts {
		if p.Len() == 0 {
			t.Fatalf("modulo interface %d empty", i)
		}
		s := stats.Describe(p.Sizes())
		if s.Max-s.Min < 1000 {
			t.Errorf("modulo interface %d spans only [%v, %v]; Figure 5 interfaces span the full range", i, s.Min, s.Max)
		}
	}
}

func TestFrequencyHoppingSlots(t *testing.T) {
	fh := PaperFH()
	if fh.Interfaces() != 3 {
		t.Fatalf("paper FH has %d channels, want 3", fh.Interfaces())
	}
	// 500 ms dwell: packets at t ∈ [0, 0.5) on slot 0, etc.
	cases := []struct {
		at   time.Duration
		want int
	}{
		{0, 0}, {499 * time.Millisecond, 0}, {500 * time.Millisecond, 1},
		{time.Second, 2}, {1500 * time.Millisecond, 0},
	}
	for _, tc := range cases {
		if got := fh.Assign(trace.Packet{Time: tc.at}); got != tc.want {
			t.Errorf("FH slot at %v = %d, want %d", tc.at, got, tc.want)
		}
	}
	// Channel order 1, 6, 11.
	if want := []int{1, 6, 11}; !slices.Equal(fh.channels, want) {
		t.Errorf("channels = %v, want %v", fh.channels, want)
	}
}

func TestFrequencyHoppingPreservesSizes(t *testing.T) {
	// The paper's criticism of FH: per-partition average packet size
	// is essentially the original's.
	tr := btTrace(t)
	parts := Apply(PaperFH(), tr)
	origMean := stats.Mean(tr.Sizes())
	for i, p := range parts {
		if p.Len() == 0 {
			continue
		}
		m := stats.Mean(p.Sizes())
		if math.Abs(m-origMean)/origMean > 0.1 {
			t.Errorf("FH partition %d mean size %.1f strays from original %.1f", i, m, origMean)
		}
	}
}

func TestMeasure(t *testing.T) {
	tr := trace.New(4)
	tr.Append(trace.Packet{Size: 100})
	tr.Append(trace.Packet{Size: 200})
	tr.Append(trace.Packet{Size: 1000})
	tr.Append(trace.Packet{Size: 1576})
	d := Measure(tr, PaperRanges3())
	want := Distribution{0.5, 0.25, 0.25}
	for j := range want {
		if math.Abs(d[j]-want[j]) > 1e-12 {
			t.Fatalf("Measure = %v, want %v", d, want)
		}
	}
	if math.Abs(d.Sum()-1) > 1e-12 {
		t.Fatalf("distribution sums to %v", d.Sum())
	}
	empty := Measure(trace.New(0), PaperRanges3())
	if empty.Sum() != 0 {
		t.Fatal("empty trace should measure to zero distribution")
	}
}

func TestObjectiveNonOptimal(t *testing.T) {
	targets := []Distribution{{1, 0}, {0, 1}}
	measured := []Distribution{{0.5, 0.5}, {0.5, 0.5}}
	want := 2 * math.Sqrt(0.5)
	if got := Objective(targets, measured); math.Abs(got-want) > 1e-12 {
		t.Errorf("objective = %v, want %v", got, want)
	}
}

func TestPrivacyEntropy(t *testing.T) {
	if got := PrivacyEntropy(8); got != 3 {
		t.Errorf("H(8) = %v, want 3", got)
	}
	if got := PrivacyEntropy(0); got != 0 {
		t.Errorf("H(0) = %v, want 0", got)
	}
}

func TestSelectRanges(t *testing.T) {
	for _, tc := range []struct {
		l    int
		want Ranges
	}{
		{2, PaperRanges2()},
		{3, PaperRanges3()},
		{5, PaperRanges5()},
	} {
		got, err := SelectRanges(tc.l)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(tc.want) {
			t.Fatalf("SelectRanges(%d) = %v, want %v", tc.l, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("SelectRanges(%d) = %v, want %v", tc.l, got, tc.want)
			}
		}
	}
	if _, err := SelectRanges(1); err == nil {
		t.Error("SelectRanges(1) should fail")
	}
	got, err := SelectRanges(4)
	if err != nil || len(got) != 4 {
		t.Errorf("SelectRanges(4) = %v, %v", got, err)
	}
}

func TestRecommended(t *testing.T) {
	o := Recommended()
	if o.Interfaces() != 3 {
		t.Fatalf("recommended I = %d, want 3", o.Interfaces())
	}
	if !AllOrthogonal(o.Targets()) {
		t.Fatal("recommended configuration must be orthogonal")
	}
}

// Property: every scheduler yields a partition of any trace.
func TestSchedulerPartitionProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		r := stats.NewRNG(seed)
		tr := trace.New(0)
		tc := time.Duration(0)
		for i := 0; i < int(n)+1; i++ {
			tc += time.Duration(r.Intn(100)) * time.Millisecond
			tr.Append(trace.Packet{Time: tc, Size: int32(r.IntRange(28, 1576))})
		}
		schedulers := []Scheduler{
			NewRandom(3, seed),
			NewRoundRobin(4),
			Recommended(),
			NewModulo(5),
			PaperFH(),
		}
		for _, s := range schedulers {
			parts := Apply(s, tr)
			total := 0
			for _, p := range parts {
				total += p.Len()
			}
			if total != tr.Len() {
				return false
			}
			for _, p := range parts {
				if !p.Sorted() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: OR's Assign is a pure function of packet size.
func TestOrthogonalPureProperty(t *testing.T) {
	o := Recommended()
	f := func(size uint16) bool {
		s := int(size%1576) + 1
		a := o.Assign(trace.Packet{Size: int32(s)})
		b := o.Assign(trace.Packet{Size: int32(s), Time: time.Hour, Dir: trace.Uplink})
		return a == b && a >= 0 && a < o.Interfaces()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSchedulerNames(t *testing.T) {
	for _, tc := range []struct {
		s    Scheduler
		want string
	}{
		{NewRandom(3, 1), "RA"},
		{NewRoundRobin(3), "RR"},
		{Recommended(), "OR"},
		{NewModulo(3), "OR-mod"},
		{PaperFH(), "FH"},
	} {
		if got := tc.s.Name(); got != tc.want {
			t.Errorf("Name() = %q, want %q", got, tc.want)
		}
	}
}
