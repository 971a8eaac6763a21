package features

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"trafficreshape/internal/appgen"
	"trafficreshape/internal/stats"
	"trafficreshape/internal/trace"
)

func window(pkts []trace.Packet) trace.Window {
	return trace.Window{Start: 0, W: 5 * time.Second, Packets: pkts, App: trace.Browsing}
}

func TestExtractBasic(t *testing.T) {
	w := window([]trace.Packet{
		{Time: 0, Size: 100, Dir: trace.Downlink},
		{Time: time.Second, Size: 300, Dir: trace.Downlink},
		{Time: 2 * time.Second, Size: 200, Dir: trace.Uplink},
	})
	v := Extract(w)
	if got := v[0]; math.Abs(got-math.Log1p(2)) > 1e-12 {
		t.Errorf("down_count = %v, want log1p(2)", got)
	}
	if v[1] != 200 {
		t.Errorf("down_mean = %v, want 200", v[1])
	}
	if v[2] != 100 {
		t.Errorf("down_std = %v, want 100", v[2])
	}
	if v[3] != 300 || v[4] != 100 {
		t.Errorf("down max/min = %v/%v, want 300/100", v[3], v[4])
	}
	if v[5] != 1.0 {
		t.Errorf("down_gap = %v, want 1.0", v[5])
	}
	if got := v[6]; math.Abs(got-math.Log1p(1)) > 1e-12 {
		t.Errorf("up_count = %v, want log1p(1)", got)
	}
	if v[7] != 200 {
		t.Errorf("up_mean = %v, want 200", v[7])
	}
	if v[11] != 0 {
		t.Errorf("up_gap with one packet = %v, want 0", v[11])
	}
}

func TestExtractMissingDirection(t *testing.T) {
	w := window([]trace.Packet{
		{Time: 0, Size: 1576, Dir: trace.Downlink},
		{Time: time.Millisecond, Size: 1576, Dir: trace.Downlink},
	})
	v := Extract(w)
	for i := 6; i < Dim; i++ {
		if v[i] != 0 {
			t.Fatalf("uplink block must be all-zero when absent, got %v at feature %d", v[i], i)
		}
	}
}

func TestExtractEmptyWindow(t *testing.T) {
	v := Extract(window(nil))
	for i, x := range v {
		if x != 0 {
			t.Fatalf("empty window feature %d = %v, want 0", i, x)
		}
	}
}

func TestScalerStandardizes(t *testing.T) {
	var examples []Example
	r := stats.NewRNG(1)
	for i := 0; i < 500; i++ {
		var v Vector
		for j := range v {
			v[j] = 10*float64(j) + 5*r.NormFloat64()
		}
		examples = append(examples, Example{X: v})
	}
	s := FitScaler(examples)
	scaled := s.ApplyAll(examples)
	for j := 0; j < Dim; j++ {
		var mean, ss float64
		for _, e := range scaled {
			mean += e.X[j]
		}
		mean /= float64(len(scaled))
		for _, e := range scaled {
			d := e.X[j] - mean
			ss += d * d
		}
		std := math.Sqrt(ss / float64(len(scaled)))
		if math.Abs(mean) > 1e-9 {
			t.Errorf("feature %d scaled mean = %v, want 0", j, mean)
		}
		if math.Abs(std-1) > 1e-9 {
			t.Errorf("feature %d scaled std = %v, want 1", j, std)
		}
	}
}

func TestScalerConstantFeature(t *testing.T) {
	examples := []Example{
		{X: Vector{5, 0}},
		{X: Vector{5, 1}},
	}
	s := FitScaler(examples)
	got := s.Apply(Vector{5, 0})
	if got[0] != 0 {
		t.Errorf("constant feature should center to 0, got %v", got[0])
	}
	if math.IsNaN(got[0]) || math.IsInf(got[0], 0) {
		t.Error("constant feature produced NaN/Inf")
	}
}

func TestScalerEmptyFit(t *testing.T) {
	s := FitScaler(nil)
	v := s.Apply(Vector{1, 2, 3})
	if math.IsNaN(v[0]) || math.IsInf(v[0], 0) {
		t.Fatal("empty-fit scaler must not produce NaN/Inf")
	}
}

func TestMinDownlinkScales(t *testing.T) {
	if got := MinDownlink(5 * time.Second); got != 2 {
		t.Errorf("MinDownlink(5s) = %d, want 2", got)
	}
	if got := MinDownlink(60 * time.Second); got != 18 {
		t.Errorf("MinDownlink(60s) = %d, want 18", got)
	}
	if got := MinDownlink(time.Second); got != 2 {
		t.Errorf("MinDownlink(1s) = %d, want floor of 2", got)
	}
}

func TestWindowsOfDropsUplinkOnly(t *testing.T) {
	tr := trace.New(0)
	// A pure uplink flow (e.g. OR interface 3 of an uploading client)
	// must yield no classification windows.
	for i := 0; i < 100; i++ {
		tr.Append(trace.Packet{Time: time.Duration(i) * 50 * time.Millisecond, Size: 1576, Dir: trace.Uplink})
	}
	if ws := AppendWindowsOf(nil, tr, 5*time.Second, false); len(ws) != 0 {
		t.Fatalf("uplink-only flow produced %d windows, want 0", len(ws))
	}
}

func TestWindowsOfKeepsDense(t *testing.T) {
	tr := appgen.Generate(trace.Video, 30*time.Second, 11)
	ws := AppendWindowsOf(nil, tr, 5*time.Second, false)
	if len(ws) < 4 {
		t.Fatalf("video flow produced only %d windows over 30s", len(ws))
	}
	minDown := MinDownlink(5 * time.Second)
	for _, w := range ws {
		downs := 0
		for _, p := range w.Packets {
			if p.Dir == trace.Downlink {
				downs++
			}
		}
		if downs < minDown {
			t.Fatalf("window kept with %d downlink packets, want >= %d", downs, minDown)
		}
	}
}

func TestRealTracesSeparateInFeatureSpace(t *testing.T) {
	// Downloading and uploading must be far apart: that's the paper's
	// core premise that features identify activities.
	do := appgen.Generate(trace.Downloading, 20*time.Second, 21)
	up := appgen.Generate(trace.Uploading, 20*time.Second, 22)
	wd := AppendWindowsOf(nil, do, 5*time.Second, false)
	wu := AppendWindowsOf(nil, up, 5*time.Second, false)
	if len(wd) == 0 || len(wu) == 0 {
		t.Fatal("expected windows for both apps")
	}
	vd := Extract(wd[0])
	vu := Extract(wu[0])
	if vd[1] < 1500 {
		t.Errorf("downloading down_mean = %v, want > 1500", vd[1])
	}
	if vu[1] > 300 {
		t.Errorf("uploading down_mean = %v, want < 300", vu[1])
	}
	if vu[7] < 1400 {
		t.Errorf("uploading up_mean = %v, want > 1400", vu[7])
	}
}

// Property: scaling then reading back any in-distribution vector never
// produces NaN or Inf.
func TestScalerFiniteProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		var examples []Example
		for i := 0; i < 50; i++ {
			var v Vector
			for j := range v {
				v[j] = r.Float64() * 1000
			}
			examples = append(examples, Example{X: v})
		}
		s := FitScaler(examples)
		for _, e := range examples {
			for _, x := range s.Apply(e.X) {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// extractReference is the pre-streaming implementation of Extract: it
// builds per-direction slices and computes statistics via
// stats.Describe. The property below pins the one-pass rewrite to it
// bit for bit, including the all-zero "direction absent" encoding.
func extractReference(w trace.Window) Vector {
	var down, up []float64
	var downTimes, upTimes []time.Duration
	for _, p := range w.Packets {
		if p.Dir == trace.Uplink {
			up = append(up, float64(p.Size))
			upTimes = append(upTimes, p.Time)
		} else {
			down = append(down, float64(p.Size))
			downTimes = append(downTimes, p.Time)
		}
	}
	meanGap := func(times []time.Duration) float64 {
		if len(times) < 2 {
			return 0
		}
		return (times[len(times)-1] - times[0]).Seconds() / float64(len(times)-1)
	}
	var v Vector
	fill := func(offset int, sizes []float64, times []time.Duration) {
		if len(sizes) == 0 {
			return
		}
		s := stats.Describe(sizes)
		v[offset+0] = math.Log1p(float64(s.N))
		v[offset+1] = s.Mean
		v[offset+2] = s.Std
		v[offset+3] = s.Max
		v[offset+4] = s.Min
		v[offset+5] = meanGap(times)
	}
	fill(0, down, downTimes)
	fill(6, up, upTimes)
	return v
}

// Property: the streaming Extract is bit-identical to the slice-based
// reference over random windows — including uplink-only,
// downlink-only and empty windows.
func TestExtractEquivalentToReference(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		r := stats.NewRNG(seed*31 + 7)
		n := r.Intn(120)
		dirBias := r.Intn(3) // 0: mixed, 1: downlink-only, 2: uplink-only
		pkts := make([]trace.Packet, n)
		tc := time.Duration(0)
		for i := range pkts {
			tc += time.Duration(r.Intn(200)) * time.Millisecond
			dir := trace.Direction(r.Intn(2))
			if dirBias == 1 {
				dir = trace.Downlink
			} else if dirBias == 2 {
				dir = trace.Uplink
			}
			pkts[i] = trace.Packet{Time: tc, Size: int32(r.IntRange(28, 1576)), Dir: dir}
		}
		w := window(pkts)
		got, want := Extract(w), extractReference(w)
		if got != want {
			t.Fatalf("seed %d: Extract diverges from reference\n got %v\nwant %v", seed, got, want)
		}
	}
}

// Extract over real generated traffic must also match, window by
// window (the synthetic unit tests cannot cover appgen's size/timing
// mixtures).
func TestExtractEquivalenceOnGeneratedTraffic(t *testing.T) {
	for _, app := range trace.Apps {
		tr := appgen.Generate(app, 30*time.Second, 5+uint64(app))
		for i, w := range AppendWindowsOf(nil, tr, 5*time.Second, false) {
			if got, want := Extract(w), extractReference(w); got != want {
				t.Fatalf("%v window %d: Extract diverges from reference", app, i)
			}
		}
	}
}

// AppendWindowsOf with a reused scratch buffer must produce the same
// qualifying windows as a fresh labeled call, and the unlabeled variant
// the same windows modulo the label.
func TestAppendWindowsOfReuse(t *testing.T) {
	tr := appgen.Generate(trace.Video, 30*time.Second, 13)
	want := AppendWindowsOf(nil, tr, 5*time.Second, true)
	var scratch []trace.Window
	for round := 0; round < 3; round++ {
		scratch = AppendWindowsOf(scratch[:0], tr, 5*time.Second, false)
		if len(scratch) != len(want) {
			t.Fatalf("round %d: %d windows, want %d", round, len(scratch), len(want))
		}
		for i := range scratch {
			if scratch[i].App != 0 {
				t.Fatalf("unlabeled window %d carries App %v", i, scratch[i].App)
			}
			if scratch[i].Start != want[i].Start || len(scratch[i].Packets) != len(want[i].Packets) {
				t.Fatalf("round %d window %d: diverges from the fresh labeled windows", round, i)
			}
		}
	}
}

// The hot path's zero-allocation contract, pinned where the code
// lives: Extract must not touch the heap.
func TestExtractAllocFree(t *testing.T) {
	tr := appgen.Generate(trace.Video, 30*time.Second, 17)
	ws := AppendWindowsOf(nil, tr, 5*time.Second, false)
	if len(ws) == 0 {
		t.Fatal("expected windows")
	}
	var sink Vector
	allocs := testing.AllocsPerRun(100, func() {
		sink = Extract(ws[0])
	})
	_ = sink
	if allocs != 0 {
		t.Fatalf("Extract allocates %.1f times per call, want 0", allocs)
	}
}
