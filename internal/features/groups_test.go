package features

import (
	"fmt"
	"math"
	"testing"
	"time"

	"trafficreshape/internal/stats"
	"trafficreshape/internal/trace"
)

// groupedRing pushes n random packets into a ring of the given
// capacity and records each packet's group in a parallel array indexed
// by ring slot, as the streaming engine records interface assignments.
// mode shapes the groups: "random" draws any of groups; "sparse" uses
// only even groups, leaving the odd ones empty; "direction" puts
// downlink packets in even groups and uplink packets in odd ones, so
// every group is single-direction; "distinct" gives packet i group
// i mod groups, so a window of at most groups packets has one-packet
// groups.
func groupedRing(r *stats.RNG, capacity, n, groups int, mode string) (*trace.Ring, []uint8) {
	ring := trace.NewRing(capacity)
	slots := make([]uint8, capacity)
	tc := time.Duration(0)
	for i := 0; i < n; i++ {
		tc += time.Duration(r.Intn(50)) * time.Millisecond
		p := trace.Packet{Time: tc, Size: int32(r.IntRange(28, 1576)), Dir: trace.Direction(r.Intn(2))}
		g := r.Intn(groups)
		switch mode {
		case "sparse":
			g &^= 1
		case "direction":
			if groups > 1 {
				g = g&^1 | int(p.Dir)
				if g >= groups {
					g -= 2
				}
			}
		case "distinct":
			g = i % groups
		}
		ring.Push(p)
		slots[i%capacity] = uint8(g)
	}
	return ring, slots
}

func sameBits(a, b Vector) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkGroups runs ExtractGroups on the ring in place and compares
// every vector bit for bit with Extract on the materialised window and
// sub-windows.
func checkGroups(t *testing.T, ring *trace.Ring, slots []uint8, groups int, label string) {
	t.Helper()
	older, newer := ring.Segments()
	h := len(newer)
	arrival := [2][]uint8{slots[h : h+len(older)], slots[:h]}
	var got Groups
	ExtractGroups(&got, groups, [2][]trace.Packet{older, newer}, arrival)

	whole := ring.AppendTo(nil)
	assign := append(append([]uint8(nil), arrival[0]...), arrival[1]...)
	if want := Extract(window(whole)); !sameBits(got.Whole, want) {
		t.Fatalf("%s: whole window\n got %v\nwant %v", label, got.Whole, want)
	}
	for k := 0; k < MaxGroups; k++ {
		var sub []trace.Packet
		down := 0
		for i, p := range whole {
			if int(assign[i]) == k {
				sub = append(sub, p)
				if p.Dir == trace.Downlink {
					down++
				}
			}
		}
		if k >= groups && (got.Sub[k] != Vector{} || got.Down[k] != 0) {
			t.Fatalf("%s: group %d past the group count is not zero", label, k)
		}
		if want := Extract(window(sub)); !sameBits(got.Sub[k], want) || got.Down[k] != down {
			t.Fatalf("%s: group %d (%d packets)\n got %v down %d\nwant %v down %d",
				label, k, len(sub), got.Sub[k], got.Down[k], want, down)
		}
	}
}

// TestExtractGroupsMatchesExtract: the grouped kernel is bit-identical
// to Extract on the whole window and on every sub-window, over rings
// that never filled, filled exactly, and wrapped to several head
// positions — including capacity 1 — for 1 to 16 groups with empty,
// single-direction and one-packet groups.
func TestExtractGroupsMatchesExtract(t *testing.T) {
	r := stats.NewRNG(31)
	for _, capacity := range []int{1, 2, 5, 64} {
		ns := []int{0, 1, capacity - 1, capacity, capacity + 1, capacity + capacity/2, 3*capacity - 1, r.Intn(4 * capacity)}
		for _, n := range ns {
			for _, groups := range []int{1, 2, 3, 7, 16} {
				for _, mode := range []string{"random", "sparse", "direction", "distinct"} {
					ring, slots := groupedRing(r, capacity, n, groups, mode)
					checkGroups(t, ring, slots, groups, fmt.Sprintf("cap=%d n=%d groups=%d %s", capacity, n, groups, mode))
				}
			}
		}
	}
}

// TestExtractGroupsAllocFree: the kernel keeps its accumulators on the
// stack and writes into the caller's Groups, so a 16-group window over
// a wrapped ring touches the heap zero times.
func TestExtractGroupsAllocFree(t *testing.T) {
	ring, slots := groupedRing(stats.NewRNG(5), 512, 700, MaxGroups, "random")
	older, newer := ring.Segments()
	h := len(newer)
	pkts := [2][]trace.Packet{older, newer}
	group := [2][]uint8{slots[h : h+len(older)], slots[:h]}
	var out Groups
	allocs := testing.AllocsPerRun(100, func() {
		ExtractGroups(&out, MaxGroups, pkts, group)
	})
	if allocs != 0 {
		t.Fatalf("ExtractGroups allocates %.1f times per call, want 0", allocs)
	}
}
