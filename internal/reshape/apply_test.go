package reshape

import (
	"slices"
	"testing"
	"time"

	"trafficreshape/internal/stats"
	"trafficreshape/internal/trace"
)

// referenceApply is the single-pass partition Apply replaced: one
// Append per packet into sub-traces presized at n/I.
func referenceApply(s Scheduler, tr *trace.Trace) []*trace.Trace {
	out := make([]*trace.Trace, s.Interfaces())
	for i := range out {
		out[i] = trace.New(tr.Len() / s.Interfaces())
	}
	for _, p := range tr.Packets {
		out[s.Assign(p)].Append(p)
	}
	return out
}

// registrySchedulers builds, fresh on every call, each scheduler the
// experiment registry evaluates: FH, RA, RR, OR, OR-I2/3/5, the equal
// thirds, the two moduli and Adaptive. RA draws from a stream seeded
// by seed, so two calls with one seed replay the same draws.
func registrySchedulers(t *testing.T, seed uint64) []Scheduler {
	t.Helper()
	or := func(r Ranges) Scheduler {
		o, err := NewOrthogonal(r)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	out := []Scheduler{
		PaperFH(),
		NewRandomFrom(3, stats.NewRNG(seed)),
		NewRoundRobin(3),
		Recommended(),
	}
	for _, i := range []int{2, 3, 5} {
		r, err := SelectRanges(i)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, or(r))
	}
	return append(out, or(EqualRanges(1576, 3)), NewModulo(3), NewModulo(5), NewAdaptive(3, 500))
}

// applyTrace is a random trace of n packets over several FH slots,
// with sizes on both sides of the paper's range edges.
func applyTrace(seed uint64, n int) *trace.Trace {
	r := stats.NewRNG(seed)
	tr := trace.New(n)
	tc := time.Duration(0)
	for i := 0; i < n; i++ {
		tc += time.Duration(r.Intn(20)) * time.Millisecond
		tr.Append(trace.Packet{
			Time: tc,
			Size: int32(r.IntRange(1, 1700)),
			Dir:  trace.Direction(r.Intn(2)),
			App:  trace.App(r.Intn(trace.NumApps)),
			Seq:  uint16(i & 0x0fff),
		})
	}
	return tr
}

// TestApplyMatchesReference checks Apply, and one Buffer reused
// across every length and scheduler, against the reference. The
// lengths are not in order, so the buffer both grows and is reused
// for a shorter trace.
func TestApplyMatchesReference(t *testing.T) {
	var buf Buffer
	for _, n := range []int{0, 1, 2, 7, 1501, 499, 5000, 500} {
		seed := uint64(n) + 17
		tr := applyTrace(seed, n)
		before := tr.Clone()
		for _, reuse := range []bool{false, true} {
			got := registrySchedulers(t, seed)
			want := registrySchedulers(t, seed)
			for k := range got {
				name := got[k].Name()
				var parts []*trace.Trace
				if reuse {
					name += " (reused buffer)"
					parts = buf.Apply(got[k], tr)
				} else {
					parts = Apply(got[k], tr)
				}
				ref := referenceApply(want[k], tr)
				if !slices.Equal(tr.Packets, before.Packets) {
					t.Fatalf("%s n=%d: Apply modified its input", name, n)
				}
				if len(parts) != len(ref) {
					t.Fatalf("%s n=%d: %d sub-traces, want %d", name, n, len(parts), len(ref))
				}
				for i := range parts {
					if !slices.Equal(parts[i].Packets, ref[i].Packets) {
						t.Fatalf("%s n=%d: interface %d differs from the reference", name, n, i)
					}
					if c, l := cap(parts[i].Packets), len(parts[i].Packets); c != l {
						t.Fatalf("%s n=%d: interface %d has cap %d, len %d", name, n, i, c, l)
					}
				}
				next := parts[1].Clone()
				parts[0].Append(trace.Packet{Time: time.Hour, Size: 1})
				if !slices.Equal(parts[1].Packets, next.Packets) {
					t.Fatalf("%s n=%d: appending to interface 0 changed interface 1", name, n)
				}
			}
		}
	}
}

// TestApplyAllocs pins Apply's allocations: the interface index, the
// per-interface counts, the backing array, the trace headers and the
// result slice — five, however long the trace.
func TestApplyAllocs(t *testing.T) {
	const want = 5
	s := Recommended()
	for _, n := range []int{1, 100, 10000} {
		tr := applyTrace(uint64(n), n)
		if allocs := testing.AllocsPerRun(20, func() { Apply(s, tr) }); allocs != want {
			t.Errorf("Apply over %d packets: %v allocs, want %d", n, allocs, want)
		}
	}
}

// TestScatterMatchesReference checks Scatter over an arbitrary group
// index, from one reused buffer, against per-group appends, and
// Packets against the sub-flows laid back to back.
func TestScatterMatchesReference(t *testing.T) {
	var buf Buffer
	r := stats.NewRNG(4)
	for _, groups := range []int{1, 3, 16} {
		for _, n := range []int{0, 1, 700, 20} {
			tr := applyTrace(uint64(n+groups), n)
			group := make([]int32, n)
			ref := make([]trace.Trace, groups)
			for k, p := range tr.Packets {
				group[k] = int32(r.Intn(groups))
				ref[group[k]].Append(p)
			}
			parts := buf.Scatter(tr.Packets, group, groups)
			if len(parts) != groups {
				t.Fatalf("groups=%d n=%d: %d sub-flows", groups, n, len(parts))
			}
			var flat []trace.Packet
			for g := range parts {
				if !slices.Equal(parts[g].Packets, ref[g].Packets) {
					t.Fatalf("groups=%d n=%d: group %d differs from the reference", groups, n, g)
				}
				flat = append(flat, parts[g].Packets...)
			}
			if !slices.Equal(buf.Packets(), flat) {
				t.Fatalf("groups=%d n=%d: Packets is not the sub-flows back to back", groups, n)
			}
		}
	}
}
