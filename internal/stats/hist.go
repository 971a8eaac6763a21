package stats

import (
	"fmt"
	"sort"
	"strings"
)

// Histogram counts observations into fixed-width or explicit bins.
// Figures 1, 4 and 5 bin packet sizes with it.
type Histogram struct {
	// Edges has len(Counts)+1 entries; bin j covers (Edges[j], Edges[j+1]].
	// The paper uses half-open ranges (ℓ_{j-1}, ℓ_j], which we follow:
	// a value x lands in bin j when Edges[j] < x <= Edges[j+1].
	Edges  []float64
	Counts []int
	total  int
}

// NewHistogram creates a histogram with the given bin edges
// (ascending, at least two). Values outside (Edges[0], Edges[last]]
// are clamped into the first/last bin, matching the paper's convention
// that ℓ_L = ℓ_max covers everything above the penultimate edge.
func NewHistogram(edges []float64) *Histogram {
	if len(edges) < 2 {
		panic("stats: histogram needs at least two edges")
	}
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			panic("stats: histogram edges must be strictly ascending")
		}
	}
	return &Histogram{
		Edges:  append([]float64(nil), edges...),
		Counts: make([]int, len(edges)-1),
	}
}

// UniformEdges returns n+1 edges splitting (lo, hi] into n equal bins.
func UniformEdges(lo, hi float64, n int) []float64 {
	if n <= 0 || hi <= lo {
		panic("stats: invalid uniform edge parameters")
	}
	edges := make([]float64, n+1)
	for i := 0; i <= n; i++ {
		edges[i] = lo + (hi-lo)*float64(i)/float64(n)
	}
	edges[n] = hi
	return edges
}

// Bin returns the bin index for x, clamping out-of-range values: x
// lands in bin b when Edges[b] < x <= Edges[b+1].
func (h *Histogram) Bin(x float64) int {
	last := len(h.Counts) - 1
	// Upper-inclusive binning: find the first edge >= x, bin is idx-1.
	idx := sort.SearchFloat64s(h.Edges, x)
	// SearchFloat64s returns the first i with Edges[i] >= x.
	// x == Edges[i] must land in bin i-1 (upper edge inclusive).
	b := idx - 1
	if b < 0 {
		b = 0
	}
	if b > last {
		b = last
	}
	return b
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.Counts[h.Bin(x)]++
	h.total++
}

// PMF returns the per-bin probability mass (sums to 1 when non-empty).
// This is the paper's P_j / p^i_j vector.
func (h *Histogram) PMF() []float64 {
	pmf := make([]float64, len(h.Counts))
	if h.total == 0 {
		return pmf
	}
	for i, c := range h.Counts {
		pmf[i] = float64(c) / float64(h.total)
	}
	return pmf
}

// CDF returns the cumulative distribution evaluated at each bin's
// upper edge.
func (h *Histogram) CDF() []float64 {
	cdf := make([]float64, len(h.Counts))
	acc := 0.0
	pmf := h.PMF()
	for i, p := range pmf {
		acc += p
		cdf[i] = acc
	}
	if h.total > 0 {
		cdf[len(cdf)-1] = 1
	}
	return cdf
}

// String renders a compact textual summary, useful in logs and tests.
func (h *Histogram) String() string {
	var b strings.Builder
	pmf := h.PMF()
	for i := range h.Counts {
		fmt.Fprintf(&b, "(%.0f,%.0f]=%d (%.3f) ", h.Edges[i], h.Edges[i+1], h.Counts[i], pmf[i])
	}
	return strings.TrimSpace(b.String())
}
