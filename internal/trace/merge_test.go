package trace

import (
	"slices"
	"sort"
	"testing"
	"time"

	"trafficreshape/internal/mac"
	"trafficreshape/internal/stats"
)

// referenceMerge is the definition Merge must meet: concatenate the
// traces and stable-sort the result by time.
func referenceMerge(traces ...*Trace) *Trace {
	out := New(0)
	for _, t := range traces {
		out.Packets = append(out.Packets, t.Packets...)
	}
	sort.SliceStable(out.Packets, func(i, j int) bool {
		return out.Packets[i].Time < out.Packets[j].Time
	})
	return out
}

// randomMergeInputs draws 0–64 traces of 0–40 packets whose times fall
// in a 6 µs range, so equal times across traces are common. About a
// third of the traces are left unsorted, and now and then one trace is
// passed twice. Every packet's Seq is unique, so any reordering of two
// equal-time packets shows in a comparison.
func randomMergeInputs(r *stats.RNG) []*Trace {
	k := r.Intn(65)
	traces := make([]*Trace, k)
	seq := 0
	for i := range traces {
		if i > 0 && r.Intn(16) == 0 {
			traces[i] = traces[r.Intn(i)]
			continue
		}
		n := r.Intn(41)
		if r.Intn(4) == 0 {
			n = 0
		}
		tr := New(n)
		for j := 0; j < n; j++ {
			tr.Append(Packet{
				Time: time.Duration(r.Intn(6)) * time.Microsecond,
				Size: 40 + r.Intn(1460),
				Dir:  Direction(r.Intn(2)),
				MAC:  mac.Address{0x02, 0, 0, 0, 0, byte(i)},
				Seq:  uint16(seq),
			})
			seq++
		}
		if r.Intn(3) != 0 {
			slices.SortStableFunc(tr.Packets, byTime)
		}
		traces[i] = tr
	}
	return traces
}

func TestMergeMatchesStableSort(t *testing.T) {
	r := stats.NewRNG(15)
	for c := 0; c < 500; c++ {
		traces := randomMergeInputs(r)
		before := make([][]Packet, len(traces))
		for i, tr := range traces {
			before[i] = slices.Clone(tr.Packets)
		}
		got, want := Merge(traces...), referenceMerge(traces...)
		if !slices.Equal(got.Packets, want.Packets) {
			t.Fatalf("case %d (k=%d): Merge differs from the stable sort of the concatenation", c, len(traces))
		}
		for i, tr := range traces {
			if !slices.Equal(tr.Packets, before[i]) {
				t.Fatalf("case %d (k=%d): Merge modified input %d", c, len(traces), i)
			}
		}
	}
}

// sortedTraces returns k sorted traces of n packets each, interleaved
// in time.
func sortedTraces(k, n int) []*Trace {
	traces := make([]*Trace, k)
	for i := range traces {
		tr := New(n)
		for j := 0; j < n; j++ {
			tr.Append(Packet{Time: time.Duration(j*k+i) * time.Microsecond, Size: 100})
		}
		traces[i] = tr
	}
	return traces
}

// TestMergeAllocs pins Merge's allocations on sorted inputs: the Trace
// and its packet slice for two inputs, plus one scratch buffer for
// more.
func TestMergeAllocs(t *testing.T) {
	two := sortedTraces(2, 1000)
	if allocs := testing.AllocsPerRun(20, func() { Merge(two[0], two[1]) }); allocs != 2 {
		t.Errorf("Merge of 2 sorted traces: %v allocs, want 2", allocs)
	}
	many := sortedTraces(56, 100)
	if allocs := testing.AllocsPerRun(20, func() { Merge(many...) }); allocs > 3 {
		t.Errorf("Merge of 56 sorted traces: %v allocs, want at most 3", allocs)
	}
}
