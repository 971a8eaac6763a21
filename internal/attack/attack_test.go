package attack

import (
	"slices"
	"testing"
	"time"

	"trafficreshape/internal/appgen"
	"trafficreshape/internal/defense"
	"trafficreshape/internal/features"
	"trafficreshape/internal/mac"
	"trafficreshape/internal/ml"
	"trafficreshape/internal/par"
	"trafficreshape/internal/stats"
	"trafficreshape/internal/trace"
)

const trainDur = 400 * time.Second

func trainedClassifier(t *testing.T, w time.Duration) *Classifier {
	t.Helper()
	traces := appgen.GenerateAll(trainDur, 1001)
	c, err := Train(traces, TrainOptions{W: w, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestTrainRequiresAllApps(t *testing.T) {
	traces := appgen.GenerateAll(60*time.Second, 1)
	delete(traces, trace.Video)
	if _, err := Train(traces, TrainOptions{}); err == nil {
		t.Fatal("missing app should fail training")
	}
}

func TestTrainRejectsTinyTraces(t *testing.T) {
	traces := appgen.GenerateAll(2*time.Second, 2)
	if _, err := Train(traces, TrainOptions{W: 5 * time.Second}); err == nil {
		t.Fatal("too-short traces should fail training")
	}
}

// TestOriginalTrafficClassifiesAccurately reproduces the paper's
// baseline premise (§II-A): with W=5s, an eavesdropper identifies
// activities from original traffic with high accuracy.
func TestOriginalTrafficClassifiesAccurately(t *testing.T) {
	w := 5 * time.Second
	c := trainedClassifier(t, w)
	test := appgen.GenerateAll(200*time.Second, 2002) // fresh seed = unseen traffic
	var conf ml.Confusion
	r := stats.NewRNG(3)
	for _, app := range trace.Apps {
		tr := test[app].Clone()
		addr := mac.RandomAddress(r)
		for i := range tr.Packets {
			tr.Packets[i].MAC = addr
		}
		conf.Merge(c.AttackTrace(tr, app, w))
	}
	mean := conf.MeanAccuracy()
	if mean < 0.70 {
		t.Fatalf("mean accuracy on original traffic = %.3f, want >= 0.70 (paper: 0.83)\n%s", mean, conf.String())
	}
	// Downloading and uploading are near-perfectly recognizable.
	for _, app := range []trace.App{trace.Downloading, trace.Uploading} {
		if acc, ok := conf.Accuracy(app); !ok || acc < 0.85 {
			t.Errorf("%v accuracy = %.3f/%v, want >= 0.85", app, acc, ok)
		}
	}
}

func TestClassifierDeterministic(t *testing.T) {
	w := 5 * time.Second
	traces := appgen.GenerateAll(120*time.Second, 5)
	c1, err := Train(traces, TrainOptions{W: w, Seed: 11, Trainer: &ml.KNNTrainer{K: 5}})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Train(traces, TrainOptions{W: w, Seed: 11, Trainer: &ml.KNNTrainer{K: 5}})
	if err != nil {
		t.Fatal(err)
	}
	tr := appgen.Generate(trace.Gaming, 30*time.Second, 6)
	ws := tr.Windows(w, 1)
	for _, win := range ws {
		if c1.Classify(win) != c2.Classify(win) {
			t.Fatal("same seed, different classifications")
		}
	}
}

func TestAttackFlowsGroupsByMAC(t *testing.T) {
	w := 5 * time.Second
	c := trainedClassifier(t, w)
	r := stats.NewRNG(9)
	a1, a2 := mac.RandomAddress(r), mac.RandomAddress(r)
	flows := map[mac.Address]*trace.Trace{
		a1: appgen.Generate(trace.Downloading, 60*time.Second, 10),
		a2: appgen.Generate(trace.Uploading, 60*time.Second, 11),
	}
	truth := map[mac.Address]trace.App{a1: trace.Downloading, a2: trace.Uploading}
	conf := c.AttackFlows(flows, truth, w)
	if acc, ok := conf.Accuracy(trace.Downloading); !ok || acc < 0.8 {
		t.Errorf("downloading flow accuracy = %.3f/%v", acc, ok)
	}
	if acc, ok := conf.Accuracy(trace.Uploading); !ok || acc < 0.8 {
		t.Errorf("uploading flow accuracy = %.3f/%v", acc, ok)
	}
	// Unknown addresses are skipped.
	flows[mac.RandomAddress(r)] = appgen.Generate(trace.Video, 30*time.Second, 12)
	conf2 := c.AttackFlows(flows, truth, w)
	if conf2.ClassTotal(trace.Video) != 0 {
		t.Error("flow without ground truth must be skipped")
	}
}

// TestPaddingDefeatedByTimingAttack reproduces the §IV-D observation:
// padding every packet to the MTU leaves interarrival/count features
// intact, so the classifier still wins far above chance.
func TestPaddingDefeatedByTimingAttack(t *testing.T) {
	w := 5 * time.Second
	// Train on padded traffic (the adversary knows the defense).
	padded := make(map[trace.App]*trace.Trace)
	for app, tr := range appgen.GenerateAll(trainDur, 3003) {
		padded[app] = defense.Pad(tr, defense.MTU)
	}
	c, err := Train(padded, TrainOptions{W: w, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	test := appgen.GenerateAll(200*time.Second, 4004)
	var conf ml.Confusion
	for _, app := range trace.Apps {
		conf.Merge(c.AttackTrace(defense.Pad(test[app], defense.MTU), app, w))
	}
	if mean := conf.MeanAccuracy(); mean < 0.5 {
		t.Fatalf("timing attack on padded traffic = %.3f, want >= 0.5 (paper: 0.71 despite padding)", mean)
	}
}

func TestProfileRSSI(t *testing.T) {
	r := stats.NewRNG(20)
	a1, a2 := mac.RandomAddress(r), mac.RandomAddress(r)
	tr := trace.New(0)
	for i := 0; i < 100; i++ {
		tr.Append(trace.Packet{Time: time.Duration(i) * time.Millisecond, MAC: a1, RSSI: -50 + r.NormFloat64()})
		tr.Append(trace.Packet{Time: time.Duration(i) * time.Millisecond, MAC: a2, RSSI: -70 + r.NormFloat64()})
	}
	profiles := ProfileRSSI(tr)
	if len(profiles) != 2 {
		t.Fatalf("profiles = %d, want 2", len(profiles))
	}
	for _, p := range profiles {
		if p.N != 100 {
			t.Errorf("profile %v has %d samples, want 100", p.Addr, p.N)
		}
		if p.Addr == a1 && (p.Mean > -45 || p.Mean < -55) {
			t.Errorf("a1 mean RSSI = %.1f, want ~-50", p.Mean)
		}
	}
}

// TestRSSILinkingAttackAndTPCDefense reproduces §V-A: without TPC,
// virtual interfaces of one card cluster tightly in RSSI and are
// linkable; per-packet TPC breaks the clustering.
func TestRSSILinkingAttackAndTPCDefense(t *testing.T) {
	r := stats.NewRNG(21)
	// Three virtual addresses of user A (same distance → same mean
	// RSSI), one real other user B farther away.
	virtA := []mac.Address{mac.RandomAddress(r), mac.RandomAddress(r), mac.RandomAddress(r)}
	userB := mac.RandomAddress(r)
	physA := mac.RandomAddress(r)

	build := func(tpc *defense.InterfaceTPC) *trace.Trace {
		tr := trace.New(0)
		for i := 0; i < 300; i++ {
			iface := i % 3
			rssi := -50 + 1.5*r.NormFloat64()
			if tpc != nil {
				rssi += tpc.OffsetFor(iface)
			}
			tr.Append(trace.Packet{Time: time.Duration(i) * time.Millisecond, MAC: virtA[iface], RSSI: rssi})
			tr.Append(trace.Packet{Time: time.Duration(i) * time.Millisecond, MAC: userB, RSSI: -72 + 1.5*r.NormFloat64()})
		}
		return tr
	}
	truth := map[mac.Address]mac.Address{
		virtA[0]: physA, virtA[1]: physA, virtA[2]: physA, userB: userB,
	}

	// Without TPC the three virtual addresses link with certainty.
	groups := LinkByRSSI(ProfileRSSI(build(nil)), 4)
	if got := LinkingSuccess(groups, truth); got < 0.99 {
		t.Errorf("linking success without TPC = %.2f, want ~1 (the §V-A vulnerability)", got)
	}

	// Per-interface power levels spread the interface means apart so
	// mean-RSSI clustering at a tight tolerance no longer links them.
	// (Per-packet jitter alone would integrate away over 100 packets —
	// see defense.InterfaceTPC.)
	tpc := defense.NewInterfaceTPC(24, 4, 22)
	groupsTPC := LinkByRSSI(ProfileRSSI(build(tpc)), 1)
	gotTPC := LinkingSuccess(groupsTPC, truth)
	if gotTPC > 0.67 {
		t.Errorf("linking success with TPC = %.2f, want degraded", gotTPC)
	}
}

func TestLinkingSuccessEdgeCases(t *testing.T) {
	if got := LinkingSuccess(nil, map[mac.Address]mac.Address{}); got != 0 {
		t.Errorf("empty linking success = %v, want 0", got)
	}
	a := mac.Address{1}
	b := mac.Address{2}
	// No true pairs → 0.
	if got := LinkingSuccess([][]mac.Address{{a, b}}, map[mac.Address]mac.Address{a: a, b: b}); got != 0 {
		t.Errorf("no-true-pair success = %v, want 0", got)
	}
}

func TestLinkByRSSISingletons(t *testing.T) {
	profiles := []RSSIProfile{
		{Addr: mac.Address{1}, Mean: -40},
		{Addr: mac.Address{2}, Mean: -60},
		{Addr: mac.Address{3}, Mean: -80},
	}
	groups := LinkByRSSI(profiles, 3)
	if len(groups) != 3 {
		t.Fatalf("distant addresses should form singletons, got %d groups", len(groups))
	}
}

// The windowed fast path (window + extract once, attack per family)
// must tally exactly the confusion matrix of the window-by-window
// Classify loop it replaced — for both regular and timing-only
// adversaries.
func TestAttackWindowedMatchesClassifyLoop(t *testing.T) {
	w := 5 * time.Second
	traces := appgen.GenerateAll(trainDur, 2002)
	for _, timingOnly := range []bool{false, true} {
		c, err := Train(traces, TrainOptions{W: w, Seed: 11, TimingOnly: timingOnly})
		if err != nil {
			t.Fatal(err)
		}
		r := stats.NewRNG(31)
		flows := make(map[mac.Address]*trace.Trace)
		truth := make(map[mac.Address]trace.App)
		for _, app := range trace.Apps {
			tr := appgen.Generate(app, 120*time.Second, 900+uint64(app))
			addr := mac.RandomAddress(r)
			flows[addr] = tr
			truth[addr] = app
		}

		got := c.AttackWindowed(WindowFlows(flows, truth, w))

		var want ml.Confusion
		for addr, tr := range flows {
			for _, win := range features.AppendWindowsOf(nil, tr, w, false) {
				want.Add(truth[addr], c.Classify(win))
			}
		}
		if *got != want {
			t.Fatalf("timingOnly=%v: AttackWindowed diverges from Classify loop\n got:\n%v\nwant:\n%v", timingOnly, got, &want)
		}
	}
}

// TestTrainAllParallelMatchesTrain pins the split of training into
// PrepareTraining and Fit: at every pool size, each family that
// TrainAllParallel fits on one prepared set predicts, window for
// window, exactly what Train with that family alone predicts.
func TestTrainAllParallelMatchesTrain(t *testing.T) {
	w := 5 * time.Second
	traces := appgen.GenerateAll(120*time.Second, 4004)
	probeTraces := appgen.GenerateAll(60*time.Second, 4005)
	var probe []features.Vector
	for _, app := range trace.Apps {
		for _, win := range features.AppendWindowsOf(nil, probeTraces[app], w, false) {
			probe = append(probe, features.Extract(win))
		}
	}
	predict := func(c *Classifier) []trace.App {
		out := make([]trace.App, len(probe))
		for i, x := range probe {
			out[i] = c.ClassifyVector(x)
		}
		return out
	}
	ts, err := PrepareTraining(traces, w)
	if err != nil {
		t.Fatal(err)
	}
	for _, timingOnly := range []bool{false, true} {
		opt := TrainOptions{W: w, Seed: 13, TimingOnly: timingOnly}
		trainers := ml.Trainers()
		want := make([][]trace.App, len(trainers))
		for i, f := range trainers {
			o := opt
			o.Trainer = f
			c, err := Train(traces, o)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = predict(c)
		}
		for _, workers := range []int{1, 2, 4} {
			clfs, err := TrainAllParallel(ts, opt, par.NewPool(workers))
			if err != nil {
				t.Fatal(err)
			}
			if len(clfs) != len(trainers) {
				t.Fatalf("workers=%d: %d classifiers, want %d", workers, len(clfs), len(trainers))
			}
			for i, c := range clfs {
				if c.Model.Name() != trainers[i].Name() || c.TimingOnly != timingOnly {
					t.Fatalf("workers=%d: slot %d holds %s (timingOnly=%v)", workers, i, c.Model.Name(), c.TimingOnly)
				}
				if got := predict(c); !slices.Equal(got, want[i]) {
					t.Errorf("timingOnly=%v workers=%d: %s predicts differently from Train", timingOnly, workers, trainers[i].Name())
				}
			}
		}
	}
}
