package stats

import (
	"math"
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
	// The uniform grids Figures 1, 4 and 5 use: every edge lands in the
	// bin below it, one ulp above an edge in the bin above, one ulp
	// below in the bin below, clamped at both ends.
	for _, n := range []int{32, 16} {
		h := NewHistogram(UniformEdges(0, 1576, n))
		clamp := func(b int) int { return min(max(b, 0), n-1) }
		for i, e := range h.Edges {
			for _, tc := range []struct {
				x    float64
				want int
			}{
				{math.Nextafter(e, math.Inf(-1)), clamp(i - 1)},
				{e, clamp(i - 1)},
				{math.Nextafter(e, math.Inf(1)), clamp(i)},
			} {
				if got := h.Bin(tc.x); got != tc.want {
					t.Errorf("n=%d: Bin(%v) = %d, want %d", n, tc.x, got, tc.want)
				}
			}
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
	if h.total != 1000 {
		t.Errorf("total = %d, want 1000", h.total)
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
		return math.Abs(sum-1) < 1e-9 && h.total == count
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
	if Mean(nil) != 0 {
		t.Fatal("empty mean should be 0")
	}
	if Mean([]float64{1, 1, 1}) != 1 {
		t.Fatal("constant sample: mean 1 expected")
	}
}

// Non-uniform edges (the paper's three ranges) must bin as a linear
// scan of the upper-inclusive rule does.
func TestHistogramNonUniformStaysOnSearchPath(t *testing.T) {
	h := NewHistogram([]float64{0, 232, 1540, 1576})
	scan := func(x float64) int {
		for b := len(h.Counts) - 1; b > 0; b-- {
			if x > h.Edges[b] {
				return b
			}
		}
		return 0
	}
	r := NewRNG(78)
	for q := 0; q < 500; q++ {
		x := r.Float64()*1800 - 100
		if got, want := h.Bin(x), scan(x); got != want {
			t.Fatalf("Bin(%v) = %d, linear scan %d", x, got, want)
		}
	}
}

// Add must stay allocation-free: Figures 1, 4 and 5 call it once per
// packet.
func TestHistogramAddAllocFree(t *testing.T) {
	h := NewHistogram(UniformEdges(0, 1576, 64))
	allocs := testing.AllocsPerRun(100, func() {
		h.Add(801.5)
	})
	if allocs != 0 {
		t.Fatalf("Add allocates %.1f times per call, want 0", allocs)
	}
}
