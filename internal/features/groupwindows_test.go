package features

import (
	"fmt"
	"math"
	"testing"
	"time"

	"trafficreshape/internal/stats"
	"trafficreshape/internal/trace"
)

// groupedTrace draws n packets in time order and a group for each.
// mode shapes the groups: "interleaved" draws any of groups per
// packet; "runs" lays the groups out back to back in time-sorted runs
// of random length, as a materialised partition's backing array holds
// them; "sparse" uses only even groups, leaving the odd ones empty;
// "bursty" separates bursts by idle gaps of up to 90 gaps (three
// windows at the gap the test draws), so whole windows stay empty;
// "aligned" draws every time on a multiple of gap/2, which divides the
// window at the gaps the test draws, so packets land exactly on window
// edges. Gaps are drawn up to gap.
func groupedTrace(r *stats.RNG, n, groups int, gap time.Duration, mode string) ([]trace.Packet, []int32) {
	pkts := make([]trace.Packet, n)
	group := make([]int32, n)
	tc := time.Duration(0)
	for i := range pkts {
		if mode == "aligned" {
			tc += time.Duration(r.Intn(3)) * gap / 2
		} else {
			tc += time.Duration(r.Intn(int(gap)))
		}
		if mode == "bursty" && r.Intn(20) == 0 {
			tc += time.Duration(r.Intn(int(90 * gap)))
		}
		pkts[i] = trace.Packet{Time: tc, Size: int32(r.IntRange(28, 1576)), Dir: trace.Direction(r.Intn(2))}
		g := r.Intn(groups)
		if mode == "sparse" {
			g &^= 1
		}
		group[i] = int32(g)
	}
	if mode == "runs" {
		// Re-time each group's run from zero, so the runs overlap in
		// time but each is in time order.
		g, off := int32(0), 0
		for off < n {
			run := r.Intn(n-off) + 1
			if int(g) == groups-1 {
				run = n - off
			}
			base := pkts[off].Time
			for i := off; i < off+run; i++ {
				pkts[i].Time -= base
				group[i] = g
			}
			off += run
			g++
		}
	}
	return pkts, group
}

// referenceGroupWindows materialises every group in pkts order and
// windows and extracts it as the batch adversary does, group by group
// in order.
func referenceGroupWindows(pkts []trace.Packet, group []int32, groups int, order []int, w time.Duration) []Vector {
	flows := make([]trace.Trace, groups)
	for i, p := range pkts {
		flows[group[i]].Append(p)
	}
	var out []Vector
	for _, g := range order {
		for _, win := range AppendWindowsOf(nil, &flows[g], w, false) {
			out = append(out, Extract(win))
		}
	}
	return out
}

// identity is the order 0, 1, …, n-1.
func identity(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// TestAppendGroupWindowsMatchesMaterialised holds the kernel to the
// materialised path, bit for bit and in order, over empty and
// one-packet groups, gaps longer than the window, back-to-back runs,
// interleaved groups, 1, 3 and 16 groups, both of the paper's windows,
// and identity, reversed and partial group orders. One scratch serves
// every case, so it is also reused across shrinking and growing
// inputs.
func TestAppendGroupWindowsMatchesMaterialised(t *testing.T) {
	var sc GroupWindows
	r := stats.NewRNG(3)
	for _, w := range []time.Duration{5 * time.Second, 60 * time.Second} {
		for _, groups := range []int{1, 3, 16} {
			for _, mode := range []string{"interleaved", "runs", "sparse", "bursty", "aligned"} {
				for _, n := range []int{0, 1, 2, 40, 3000} {
					// About 40 packets per group and window, so at
					// W = 60 s the downlink count straddles the
					// threshold; short traces mostly open a window per
					// packet.
					gap := w / time.Duration(20*groups)
					if n <= 40 {
						gap = 2 * w
					}
					pkts, group := groupedTrace(r, n, groups, gap, mode)
					reversed := identity(groups)
					for i, j := 0, len(reversed)-1; i < j; i, j = i+1, j-1 {
						reversed[i], reversed[j] = reversed[j], reversed[i]
					}
					orders := map[string][]int{
						"identity": identity(groups),
						"reversed": reversed,
						"partial":  identity(groups)[groups/2:],
					}
					for oname, order := range orders {
						name := fmt.Sprintf("W=%v/groups=%d/%s/n=%d/%s", w, groups, mode, n, oname)
						want := referenceGroupWindows(pkts, group, groups, order, w)
						got := AppendGroupWindows(nil, &sc, pkts, group, groups, order, w)
						if n == 3000 && mode == "interleaved" && oname == "identity" && len(want) == 0 {
							t.Fatalf("%s: no window qualifies, so nothing is compared", name)
						}
						if len(got) != len(want) {
							t.Fatalf("%s: %d vectors, want %d", name, len(got), len(want))
						}
						for k := range got {
							for d := range got[k] {
								if math.Float64bits(got[k][d]) != math.Float64bits(want[k][d]) {
									t.Fatalf("%s: vector %d feature %d = %v, want %v", name, k, d, got[k][d], want[k][d])
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestAppendGroupWindowsAppends: the kernel appends after dst's
// vectors and leaves them alone.
func TestAppendGroupWindowsAppends(t *testing.T) {
	pkts, group := groupedTrace(stats.NewRNG(5), 500, 3, 100*time.Millisecond, "interleaved")
	var sc GroupWindows
	want := AppendGroupWindows(nil, &sc, pkts, group, 3, identity(3), 5*time.Second)
	if len(want) == 0 {
		t.Fatal("no qualifying windows")
	}
	head := Vector{1, 2, 3}
	got := AppendGroupWindows([]Vector{head}, &sc, pkts, group, 3, identity(3), 5*time.Second)
	if len(got) != len(want)+1 || got[0] != head {
		t.Fatalf("got %d vectors (first %v), want %v then %d", len(got), got[0], head, len(want))
	}
	for k := range want {
		if got[k+1] != want[k] {
			t.Fatalf("vector %d differs after a prefix", k)
		}
	}
}

// TestAppendGroupWindowsAllocFree pins the kernel's steady state: on
// scratch warmed by the same input it allocates nothing.
func TestAppendGroupWindowsAllocFree(t *testing.T) {
	pkts, group := groupedTrace(stats.NewRNG(9), 20000, 5, 20*time.Millisecond, "interleaved")
	order := identity(5)
	var sc GroupWindows
	dst := AppendGroupWindows(nil, &sc, pkts, group, 5, order, 5*time.Second)
	allocs := testing.AllocsPerRun(20, func() {
		dst = AppendGroupWindows(dst[:0], &sc, pkts, group, 5, order, 5*time.Second)
	})
	if allocs != 0 {
		t.Fatalf("warm AppendGroupWindows allocates %v times per call", allocs)
	}
}
