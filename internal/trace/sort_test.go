package trace

import (
	"slices"
	"testing"
	"time"

	"trafficreshape/internal/stats"
)

// sortFixtures are the input shapes Sort must handle: each packet's
// Seq is its input position, so a result that breaks stability among
// equal times differs from the reference.
func sortFixtures() map[string][]Packet {
	const n = 2000
	numbered := func(times []time.Duration) []Packet {
		ps := make([]Packet, len(times))
		for i, at := range times {
			ps[i] = Packet{Time: at, Size: 100, Seq: uint16(i)}
		}
		return ps
	}
	times := make([]time.Duration, n)

	for i := range times {
		times[i] = time.Duration(i/3) * time.Millisecond // runs of equal times
	}
	sorted := numbered(times)

	// A split's shape: each packet's fragments follow it at 200 µs
	// steps and overtake the next few packets, which arrive 150 µs
	// apart.
	var split []time.Duration
	for i := 0; len(split) < n; i++ {
		at := time.Duration(i) * 150 * time.Microsecond
		split = append(split, at)
		if i%4 == 0 {
			split = append(split, at+200*time.Microsecond, at+400*time.Microsecond)
		}
	}
	nearly := numbered(split[:n])

	for i := range times {
		times[i] = time.Duration(n-i) * time.Millisecond
	}
	reversed := numbered(times)

	r := stats.NewRNG(11)
	for i := range times {
		times[i] = time.Duration(r.Intn(40)) * time.Millisecond // many equal times
	}
	shuffled := numbered(times)

	return map[string][]Packet{
		"sorted":   sorted,
		"nearly":   nearly,
		"reversed": reversed,
		"shuffled": shuffled,
		"empty":    nil,
		"single":   sorted[:1],
	}
}

// TestSortMatchesStableSort: Sort's insertion pass, and its fallback
// once the move budget runs out (the reversed and shuffled inputs),
// give exactly the stable sort's order.
func TestSortMatchesStableSort(t *testing.T) {
	for name, in := range sortFixtures() {
		want := slices.Clone(in)
		slices.SortStableFunc(want, byTime)
		tr := &Trace{Packets: slices.Clone(in)}
		tr.Sort()
		if !slices.Equal(tr.Packets, want) {
			t.Errorf("%s: Sort differs from slices.SortStableFunc", name)
		}
	}
}

// TestSortAllocFree: Sort works in place on both of its paths.
func TestSortAllocFree(t *testing.T) {
	fx := sortFixtures()
	for _, name := range []string{"nearly", "reversed"} {
		in := fx[name]
		tr := &Trace{Packets: make([]Packet, len(in))}
		if allocs := testing.AllocsPerRun(20, func() {
			copy(tr.Packets, in)
			tr.Sort()
		}); allocs != 0 {
			t.Errorf("%s: Sort allocates %.1f times per call, want 0", name, allocs)
		}
	}
}
