package trace

import (
	"math"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"trafficreshape/internal/mac"
	"trafficreshape/internal/stats"
)

func mkPacket(tms int, size int, dir Direction, app App) Packet {
	return Packet{Time: time.Duration(tms) * time.Millisecond, Size: int32(size), Dir: dir, App: app}
}

// TestPacketLayout pins the packet's in-memory size: every batch stage
// scans packets, so a field that widens it (or reorders it into
// padding) costs memory traffic everywhere.
func TestPacketLayout(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Packet{}) = %d, want 32", got)
	}
}

func TestAppNames(t *testing.T) {
	if len(Apps) != NumApps {
		t.Fatalf("Apps has %d entries, want %d", len(Apps), NumApps)
	}
	for _, a := range Apps {
		parsed, err := ParseApp(a.String())
		if err != nil || parsed != a {
			t.Errorf("ParseApp(%q) = %v, %v", a.String(), parsed, err)
		}
		parsed, err = ParseApp(a.Short())
		if err != nil || parsed != a {
			t.Errorf("ParseApp(%q) = %v, %v", a.Short(), parsed, err)
		}
	}
	if _, err := ParseApp("nonsense"); err == nil {
		t.Error("ParseApp should reject unknown names")
	}
}

func TestDirectionString(t *testing.T) {
	if Uplink.String() != "up" || Downlink.String() != "down" {
		t.Fatal("direction names wrong")
	}
}

func TestTraceBasics(t *testing.T) {
	tr := New(4)
	tr.Append(mkPacket(0, 100, Downlink, Browsing))
	tr.Append(mkPacket(10, 200, Uplink, Browsing))
	tr.Append(mkPacket(30, 300, Downlink, Browsing))
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	if tr.Duration() != 30*time.Millisecond {
		t.Fatalf("Duration = %v, want 30ms", tr.Duration())
	}
	if tr.Bytes() != 600 {
		t.Fatalf("Bytes = %d, want 600", tr.Bytes())
	}
	sizes := tr.Sizes()
	if len(sizes) != 3 || sizes[0] != 100 || sizes[2] != 300 {
		t.Fatalf("Sizes = %v", sizes)
	}
}

func TestSortAndSorted(t *testing.T) {
	tr := New(3)
	tr.Append(mkPacket(30, 1, Downlink, Browsing))
	tr.Append(mkPacket(10, 2, Downlink, Browsing))
	tr.Append(mkPacket(20, 3, Downlink, Browsing))
	if tr.Sorted() {
		t.Fatal("trace should report unsorted")
	}
	tr.Sort()
	if !tr.Sorted() {
		t.Fatal("trace should be sorted after Sort")
	}
	if tr.Packets[0].Size != 2 || tr.Packets[2].Size != 1 {
		t.Fatalf("sort produced wrong order: %v", tr.Packets)
	}
}

func TestSortStability(t *testing.T) {
	tr := New(3)
	tr.Append(Packet{Time: time.Second, Size: 1})
	tr.Append(Packet{Time: time.Second, Size: 2})
	tr.Append(Packet{Time: time.Second, Size: 3})
	tr.Sort()
	for i, want := range []int{1, 2, 3} {
		if int(tr.Packets[i].Size) != want {
			t.Fatalf("stable sort violated: %v", tr.Packets)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	tr := New(1)
	tr.Append(mkPacket(0, 100, Downlink, Browsing))
	c := tr.Clone()
	c.Packets[0].Size = 999
	if tr.Packets[0].Size != 100 {
		t.Fatal("clone shares packet storage")
	}
}

func TestByDirection(t *testing.T) {
	tr := New(4)
	tr.Append(mkPacket(0, 1, Downlink, Browsing))
	tr.Append(mkPacket(1, 2, Uplink, Browsing))
	tr.Append(mkPacket(2, 3, Downlink, Browsing))
	down, up := tr.ByDirection()
	if down.Len() != 2 || up.Len() != 1 {
		t.Fatalf("split wrong: down=%d up=%d", down.Len(), up.Len())
	}
}

func TestByMAC(t *testing.T) {
	a := mac.Address{1}
	b := mac.Address{2}
	tr := New(4)
	tr.Append(Packet{Time: 1, MAC: a})
	tr.Append(Packet{Time: 2, MAC: b})
	tr.Append(Packet{Time: 3, MAC: a})
	groups := tr.ByMAC()
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(groups))
	}
	if groups[a].Len() != 2 || groups[b].Len() != 1 {
		t.Fatal("per-MAC counts wrong")
	}
	if !groups[a].Sorted() {
		t.Fatal("per-MAC trace lost time order")
	}
}

func TestMerge(t *testing.T) {
	t1 := New(2)
	t1.Append(mkPacket(0, 1, Downlink, Browsing))
	t1.Append(mkPacket(20, 2, Downlink, Browsing))
	t2 := New(1)
	t2.Append(mkPacket(10, 3, Downlink, Chatting))
	m := Merge(t1, t2)
	if m.Len() != 3 || !m.Sorted() {
		t.Fatalf("merge wrong: %v", m.Packets)
	}
	if m.Packets[1].Size != 3 {
		t.Fatal("merge did not interleave by time")
	}
}

func TestInterarrivalsIdleFilter(t *testing.T) {
	tr := New(4)
	tr.Append(mkPacket(0, 1, Downlink, Browsing))
	tr.Append(mkPacket(100, 1, Downlink, Browsing))
	tr.Append(mkPacket(10100, 1, Downlink, Browsing)) // 10 s idle gap
	tr.Append(mkPacket(10200, 1, Downlink, Browsing))
	all := tr.Interarrivals(0)
	if len(all) != 3 {
		t.Fatalf("unfiltered gaps = %d, want 3", len(all))
	}
	// Paper §IV-B: gaps beyond the eavesdropping window (5 s) are
	// filtered out of the interarrival statistics.
	filtered := tr.Interarrivals(5 * time.Second)
	if len(filtered) != 2 {
		t.Fatalf("filtered gaps = %d, want 2", len(filtered))
	}
	for _, g := range filtered {
		if g > 5 {
			t.Fatalf("filter kept a %vs gap", g)
		}
	}
}

func TestWindows(t *testing.T) {
	tr := New(0)
	// Packets at 0.5s, 1.5s, 5.5s → windows [0,5) and [5,10).
	tr.Append(Packet{Time: 500 * time.Millisecond, App: Gaming})
	tr.Append(Packet{Time: 1500 * time.Millisecond, App: Gaming})
	tr.Append(Packet{Time: 5500 * time.Millisecond, App: Gaming})
	ws := tr.Windows(5*time.Second, 1)
	if len(ws) != 2 {
		t.Fatalf("windows = %d, want 2", len(ws))
	}
	if len(ws[0].Packets) != 2 || len(ws[1].Packets) != 1 {
		t.Fatalf("window packet counts wrong: %d, %d", len(ws[0].Packets), len(ws[1].Packets))
	}
	if ws[0].App != Gaming {
		t.Fatal("window ground truth wrong")
	}
}

func TestWindowsMinPackets(t *testing.T) {
	tr := New(0)
	tr.Append(Packet{Time: 0})
	tr.Append(Packet{Time: 6 * time.Second})
	tr.Append(Packet{Time: 6500 * time.Millisecond})
	ws := tr.Windows(5*time.Second, 2)
	if len(ws) != 1 {
		t.Fatalf("windows = %d, want 1 (first window has too few packets)", len(ws))
	}
}

func TestWindowsSkipsEmptySpans(t *testing.T) {
	tr := New(0)
	tr.Append(Packet{Time: 0})
	tr.Append(Packet{Time: 100 * time.Second})
	ws := tr.Windows(5*time.Second, 1)
	if len(ws) != 2 {
		t.Fatalf("windows = %d, want 2 (long silence yields no windows)", len(ws))
	}
}

func TestWindowsMajorityLabel(t *testing.T) {
	tr := New(0)
	tr.Append(Packet{Time: 0, App: Chatting})
	tr.Append(Packet{Time: 1, App: Video})
	tr.Append(Packet{Time: 2, App: Video})
	ws := tr.Windows(time.Second, 1)
	if len(ws) != 1 || ws[0].App != Video {
		t.Fatalf("majority label wrong: %+v", ws)
	}
}

func TestWindowsPanicsOnBadW(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Windows(0) should panic")
		}
	}()
	New(0).Windows(0, 1)
}

func TestSummarize(t *testing.T) {
	tr := New(3)
	tr.Append(mkPacket(0, 100, Downlink, Browsing))
	tr.Append(mkPacket(1000, 200, Downlink, Browsing))
	tr.Append(mkPacket(2000, 300, Downlink, Browsing))
	s := tr.Summarize(0)
	if s.Packets != 3 || s.AvgSize != 200 {
		t.Fatalf("Summarize = %+v", s)
	}
	if s.AvgInterarrive != 1.0 {
		t.Fatalf("AvgInterarrive = %v, want 1.0", s.AvgInterarrive)
	}
	empty := New(0).Summarize(0)
	if empty.Packets != 0 || empty.AvgSize != 0 {
		t.Fatal("empty Summarize should be zero")
	}
}

// Property: windows partition the packets they keep — every packet
// lands in exactly one window and total kept <= total packets.
func TestWindowsPartitionProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		tr := New(0)
		tc := time.Duration(0)
		for i := 0; i < 200; i++ {
			tc += time.Duration(r.Intn(2000)) * time.Millisecond
			tr.Append(Packet{Time: tc, Size: 100, App: Browsing})
		}
		ws := tr.Windows(5*time.Second, 1)
		kept := 0
		for _, w := range ws {
			kept += len(w.Packets)
			for _, p := range w.Packets {
				if p.Time < w.Start || p.Time >= w.Start+w.W {
					return false
				}
			}
		}
		return kept == tr.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// windowsReference is the pre-zero-copy implementation of Windows,
// kept verbatim as the behavioral spec: it grows a fresh packet slice
// per window. The equivalence property below pins the zero-copy
// rewrite to it bit for bit.
func windowsReference(t *Trace, w time.Duration, minPackets int) []Window {
	if w <= 0 {
		panic("trace: window duration must be positive")
	}
	if len(t.Packets) == 0 {
		return nil
	}
	var out []Window
	start := t.Packets[0].Time
	var cur []Packet
	flush := func(winStart time.Duration) {
		if len(cur) >= minPackets {
			out = append(out, Window{Start: winStart, W: w, Packets: cur, App: majorityApp(cur)})
		}
		cur = nil
	}
	for _, p := range t.Packets {
		for p.Time >= start+w {
			flush(start)
			start += w
		}
		cur = append(cur, p)
	}
	flush(start)
	return out
}

func randomWindowTrace(seed uint64, n int) *Trace {
	r := stats.NewRNG(seed)
	tr := New(0)
	tc := time.Duration(0)
	for i := 0; i < n; i++ {
		tc += time.Duration(r.Intn(3000)) * time.Millisecond
		tr.Append(Packet{
			Time: tc,
			Size: int32(r.IntRange(28, 1576)),
			Dir:  Direction(r.Intn(2)),
			App:  App(r.Intn(NumApps)),
		})
	}
	return tr
}

func windowsEqual(a, b []Window) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Start != b[i].Start || a[i].W != b[i].W || a[i].App != b[i].App {
			return false
		}
		if len(a[i].Packets) != len(b[i].Packets) {
			return false
		}
		for j := range a[i].Packets {
			if a[i].Packets[j] != b[i].Packets[j] {
				return false
			}
		}
	}
	return true
}

// Property: the zero-copy Windows matches the slice-copying reference
// implementation exactly — same windows, same packets, same labels —
// across random traces, window lengths and packet floors.
func TestWindowsEquivalentToReference(t *testing.T) {
	for seed := uint64(0); seed < 25; seed++ {
		r := stats.NewRNG(seed * 7779)
		tr := randomWindowTrace(seed, r.Intn(300))
		w := time.Duration(r.IntRange(1, 20)) * time.Second
		minPackets := r.Intn(4)
		got := tr.Windows(w, minPackets)
		want := windowsReference(tr, w, minPackets)
		if !windowsEqual(got, want) {
			t.Fatalf("seed %d: zero-copy windows diverge from reference (w=%v min=%d)", seed, w, minPackets)
		}
	}
}

// TestWindowsFarFutureTimestamp: a packet at the largest timestamp
// neither overflows the window arithmetic nor walks the empty windows
// before it one by one.
func TestWindowsFarFutureTimestamp(t *testing.T) {
	tr := New(2)
	tr.Append(Packet{Time: 0})
	tr.Append(Packet{Time: math.MaxInt64})
	w := 5 * time.Second
	done := make(chan []Window, 1)
	go func() { done <- tr.Windows(w, 1) }()
	select {
	case ws := <-done:
		if len(ws) != 2 || len(ws[1].Packets) != 1 || math.MaxInt64-ws[1].Start >= w {
			t.Fatalf("windows = %+v, want the two packets in two windows", ws)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Windows did not return within 10s")
	}
}

// TestWindowsLongGapMatchesReference: across a 20-day silence the
// step over empty windows yields exactly the reference's windows, with
// and without a packet floor.
func TestWindowsLongGapMatchesReference(t *testing.T) {
	tr := randomWindowTrace(3, 40)
	gap := 20 * 24 * time.Hour
	last := tr.Packets[tr.Len()-1].Time
	for _, p := range randomWindowTrace(4, 40).Packets {
		p.Time += last + gap
		tr.Append(p)
	}
	for minPackets := 0; minPackets <= 2; minPackets++ {
		got := tr.Windows(time.Minute, minPackets)
		want := windowsReference(tr, time.Minute, minPackets)
		if !windowsEqual(got, want) {
			t.Fatalf("minPackets %d: %d windows, reference %d", minPackets, len(got), len(want))
		}
	}
}

// The zero-copy contract itself: every window's packet slice must
// alias the trace's backing array, not a copy.
func TestWindowsZeroCopy(t *testing.T) {
	tr := randomWindowTrace(3, 200)
	ws := tr.Windows(5*time.Second, 1)
	if len(ws) == 0 {
		t.Fatal("expected windows")
	}
	for _, w := range ws {
		if len(w.Packets) == 0 {
			continue
		}
		first := &w.Packets[0]
		aliased := false
		for i := range tr.Packets {
			if first == &tr.Packets[i] {
				aliased = true
				break
			}
		}
		if !aliased {
			t.Fatal("window packets are a copy, not a subslice of the trace")
		}
	}
}

// AppendWindows without the label pass must produce the same windows
// with App zeroed, and must support scratch reuse without changing
// results.
func TestAppendWindowsUnlabeledAndReuse(t *testing.T) {
	tr := randomWindowTrace(11, 250)
	labeled := tr.Windows(5*time.Second, 2)
	unlabeled := tr.AppendWindows(nil, 5*time.Second, 2, false)
	if len(labeled) != len(unlabeled) {
		t.Fatalf("labeled %d windows, unlabeled %d", len(labeled), len(unlabeled))
	}
	for i := range labeled {
		if unlabeled[i].App != 0 {
			t.Fatalf("unlabeled window %d has App %v", i, unlabeled[i].App)
		}
		unlabeled[i].App = labeled[i].App
	}
	if !windowsEqual(labeled, unlabeled) {
		t.Fatal("unlabeled windows differ beyond the label")
	}

	scratch := make([]Window, 0, 8)
	for round := 0; round < 3; round++ {
		scratch = tr.AppendWindows(scratch[:0], 5*time.Second, 2, true)
		if !windowsEqual(scratch, labeled) {
			t.Fatalf("round %d: reused AppendWindows buffer diverges", round)
		}
	}
}
