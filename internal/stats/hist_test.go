package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestHistogramBinning(t *testing.T) {
	// Paper's canonical three ranges: (0,232], (232,1540], (1540,1576].
	h := NewHistogram([]float64{0, 232, 1540, 1576})
	cases := []struct {
		x    float64
		want int
	}{
		{1, 0}, {232, 0}, {233, 1}, {1540, 1}, {1541, 2}, {1576, 2},
		{-5, 0},   // clamped low
		{9999, 2}, // clamped high
	}
	for _, tc := range cases {
		if got := h.Bin(tc.x); got != tc.want {
			t.Errorf("Bin(%v) = %d, want %d", tc.x, got, tc.want)
		}
	}
}

func TestHistogramPMFSumsToOne(t *testing.T) {
	h := NewHistogram(UniformEdges(0, 100, 10))
	r := NewRNG(1)
	for i := 0; i < 1000; i++ {
		h.Add(r.Float64() * 100)
	}
	sum := 0.0
	for _, p := range h.PMF() {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("PMF sums to %v, want 1", sum)
	}
	if h.Total() != 1000 {
		t.Errorf("Total = %d, want 1000", h.Total())
	}
}

func TestHistogramEmptyPMF(t *testing.T) {
	h := NewHistogram([]float64{0, 1, 2})
	for _, p := range h.PMF() {
		if p != 0 {
			t.Fatal("empty histogram PMF should be all zero")
		}
	}
}

func TestHistogramCDFMonotone(t *testing.T) {
	h := NewHistogram(UniformEdges(0, 10, 5))
	r := NewRNG(2)
	for i := 0; i < 500; i++ {
		h.Add(r.Float64() * 10)
	}
	cdf := h.CDF()
	prev := 0.0
	for i, c := range cdf {
		if c < prev-1e-12 {
			t.Fatalf("CDF decreases at bin %d: %v < %v", i, c, prev)
		}
		prev = c
	}
	if math.Abs(cdf[len(cdf)-1]-1) > 1e-9 {
		t.Errorf("CDF final value = %v, want 1", cdf[len(cdf)-1])
	}
}

func TestHistogramCloneIsIndependent(t *testing.T) {
	h := NewHistogram([]float64{0, 1, 2})
	h.Add(0.5)
	c := h.Clone()
	c.Add(1.5)
	if h.Total() != 1 || c.Total() != 2 {
		t.Fatalf("clone shares state: orig total %d, clone total %d", h.Total(), c.Total())
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram([]float64{0, 1})
	h.AddN(0.5, 7)
	h.Reset()
	if h.Total() != 0 || h.Counts[0] != 0 {
		t.Fatal("reset did not clear histogram")
	}
}

func TestHistogramValidation(t *testing.T) {
	for _, edges := range [][]float64{{}, {1}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) should panic", edges)
				}
			}()
			NewHistogram(edges)
		}()
	}
}

func TestUniformEdges(t *testing.T) {
	e := UniformEdges(0, 100, 4)
	want := []float64{0, 25, 50, 75, 100}
	for i := range want {
		if e[i] != want[i] {
			t.Fatalf("UniformEdges = %v, want %v", e, want)
		}
	}
}

// Property: PMF always sums to ~1 for any non-empty fill.
func TestHistogramPMFProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		h := NewHistogram(UniformEdges(0, 1, 7))
		r := NewRNG(seed)
		count := int(n) + 1
		for i := 0; i < count; i++ {
			h.Add(r.Float64())
		}
		sum := 0.0
		for _, p := range h.PMF() {
			sum += p
		}
		return math.Abs(sum-1) < 1e-9 && h.Total() == count
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDescribe(t *testing.T) {
	s := Describe([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Min != 2 || s.Max != 9 {
		t.Fatalf("Describe basic fields wrong: %+v", s)
	}
	if math.Abs(s.Mean-5) > 1e-12 {
		t.Errorf("mean = %v, want 5", s.Mean)
	}
	if math.Abs(s.Std-2) > 1e-12 {
		t.Errorf("std = %v, want 2", s.Std)
	}
	if math.Abs(s.Median-4.5) > 1e-12 {
		t.Errorf("median = %v, want 4.5", s.Median)
	}
}

func TestDescribeEmpty(t *testing.T) {
	s := Describe(nil)
	if s.N != 0 || s.Mean != 0 || s.Std != 0 {
		t.Fatalf("empty Describe should be zero: %+v", s)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if q := Quantile(xs, 0); q != 1 {
		t.Errorf("q0 = %v, want 1", q)
	}
	if q := Quantile(xs, 1); q != 5 {
		t.Errorf("q1 = %v, want 5", q)
	}
	if q := Quantile(xs, 0.5); q != 3 {
		t.Errorf("median = %v, want 3", q)
	}
	if q := Quantile(xs, 0.25); q != 2 {
		t.Errorf("q25 = %v, want 2", q)
	}
}

func TestMeanStdHelpers(t *testing.T) {
	if Mean(nil) != 0 || Std(nil) != 0 {
		t.Fatal("empty helpers should return 0")
	}
	xs := []float64{1, 1, 1}
	if Mean(xs) != 1 || Std(xs) != 0 {
		t.Fatal("constant sample: mean 1, std 0 expected")
	}
}

// binReference is the binary-search binning rule, kept as the spec
// the O(1) uniform fast path must reproduce exactly.
func binReference(h *Histogram, x float64) int {
	idx := sort.SearchFloat64s(h.Edges, x)
	b := idx - 1
	if b < 0 {
		b = 0
	}
	if b >= len(h.Counts) {
		b = len(h.Counts) - 1
	}
	return b
}

// Property: on uniform-edge histograms, Bin matches the binary-search
// reference for random values, exact edge values, values a hair on
// either side of each edge, and far out-of-range values.
func TestHistogramUniformFastPathMatchesSearch(t *testing.T) {
	r := NewRNG(77)
	for trial := 0; trial < 60; trial++ {
		lo := r.Float64()*200 - 100
		hi := lo + 1e-3 + r.Float64()*2000
		n := 1 + r.Intn(96)
		h := NewHistogram(UniformEdges(lo, hi, n))

		check := func(x float64) {
			if got, want := h.Bin(x), binReference(h, x); got != want {
				t.Fatalf("trial %d (lo=%v hi=%v n=%d): Bin(%v) = %d, reference %d", trial, lo, hi, n, x, got, want)
			}
		}
		for q := 0; q < 200; q++ {
			check(lo + (r.Float64()*1.2-0.1)*(hi-lo))
		}
		for _, e := range h.Edges {
			check(e)
			check(math.Nextafter(e, math.Inf(-1)))
			check(math.Nextafter(e, math.Inf(1)))
		}
		check(lo - 1e6)
		check(hi + 1e6)
		// NaN must agree too: both paths clamp it into the last bin
		// (every comparison against NaN is false, so the search finds
		// no edge and the arithmetic guess clamps high).
		check(math.NaN())
	}
}

// Non-uniform edges must stay on (and agree with) the search path.
func TestHistogramNonUniformStaysOnSearchPath(t *testing.T) {
	h := NewHistogram([]float64{0, 232, 1540, 1576})
	if h.uniform {
		t.Fatal("paper ranges misdetected as uniform")
	}
	r := NewRNG(78)
	for q := 0; q < 500; q++ {
		x := r.Float64()*1800 - 100
		if got, want := h.Bin(x), binReference(h, x); got != want {
			t.Fatalf("Bin(%v) = %d, reference %d", x, got, want)
		}
	}
}

// Uniform detection must accept the UniformEdges formula and reject
// perturbed grids (where the O(1) guess could be more than one bin
// off).
func TestHistogramUniformDetection(t *testing.T) {
	if h := NewHistogram(UniformEdges(0, 1576, 64)); !h.uniform {
		t.Fatal("UniformEdges output not detected as uniform")
	}
	edges := UniformEdges(0, 1576, 64)
	edges[10] += 7
	if h := NewHistogram(edges); h.uniform {
		t.Fatal("perturbed grid misdetected as uniform")
	}
	if c := NewHistogram(UniformEdges(-3, 9, 7)).Clone(); !c.uniform {
		t.Fatal("Clone dropped the uniform flag")
	}
}

// Add on the fast path must stay allocation-free.
func TestHistogramAddAllocFree(t *testing.T) {
	h := NewHistogram(UniformEdges(0, 1576, 64))
	allocs := testing.AllocsPerRun(100, func() {
		h.Add(801.5)
	})
	if allocs != 0 {
		t.Fatalf("Add allocates %.1f times per call, want 0", allocs)
	}
}
