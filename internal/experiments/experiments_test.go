package experiments

import (
	"strings"
	"sync"
	"testing"
	"time"

	"trafficreshape/internal/trace"
)

// Shared quick dataset (W = 5 s): building it once keeps the
// integration suite fast while every test still exercises the full
// train→attack pipeline.
var (
	dsOnce sync.Once
	dsVal  *Dataset
	dsErr  error
)

func quickDataset(t *testing.T) *Dataset {
	t.Helper()
	dsOnce.Do(func() {
		dsVal, dsErr = BuildDataset(QuickConfig(5 * time.Second))
	})
	if dsErr != nil {
		t.Fatal(dsErr)
	}
	return dsVal
}

func TestBuildDatasetTrainsAllFamilies(t *testing.T) {
	ds := quickDataset(t)
	if len(ds.Classifiers) != 4 {
		t.Fatalf("trained %d families, want 4", len(ds.Classifiers))
	}
	if len(ds.Test) != trace.NumApps {
		t.Fatalf("test traces for %d apps, want %d", len(ds.Test), trace.NumApps)
	}
}

// TestTable2Shape pins the paper's central result (Table II):
// reshaping with OR collapses mean accuracy while FH/RA/RR do not.
func TestTable2Shape(t *testing.T) {
	ds := quickDataset(t)
	res, err := runTable2(ds, ds.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	orig := res.Metric("mean/Original")
	or := res.Metric("mean/OR")
	if orig < 0.80 {
		t.Errorf("original mean accuracy = %.3f, want >= 0.80 (paper 0.83)", orig)
	}
	if or > 0.65 {
		t.Errorf("OR mean accuracy = %.3f, want <= 0.65 (paper 0.44)", or)
	}
	if orig-or < 0.25 {
		t.Errorf("OR should cut mean accuracy by >= 25 points (got %.3f -> %.3f)", orig, or)
	}
	// The naive partitioners barely help (paper: 75-77% vs 83%).
	for _, scheme := range []string{"FH", "RA", "RR"} {
		m := res.Metric("mean/" + scheme)
		if orig-m > 0.30 {
			t.Errorf("%s mean accuracy = %.3f; naive schemes must stay near original %.3f", scheme, m, orig)
		}
		if m < or {
			t.Errorf("%s (%.3f) must not beat OR (%.3f) at defending", scheme, m, or)
		}
	}
	// Per-application structure under OR (Table II's OR column):
	// browsing, video and BitTorrent collapse; downloading and
	// uploading survive; chatting stays high.
	for _, app := range []string{"br.", "vo.", "bt."} {
		if acc := res.Metric("acc/OR/" + app); acc > 0.30 {
			t.Errorf("OR %s accuracy = %.3f, want <= 0.30 (paper <= 0.024)", app, acc)
		}
	}
	for _, app := range []string{"do.", "up.", "ch."} {
		if acc := res.Metric("acc/OR/" + app); acc < 0.70 {
			t.Errorf("OR %s accuracy = %.3f, want >= 0.70 (paper 0.84-1.0)", app, acc)
		}
	}
}

// TestTable3Shape pins the flatness claim: OR accuracy barely moves
// when the eavesdropping window grows from 5 s to 60 s, while the
// original (and naive schemes) improve or stay high.
func TestTable3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("60s dataset is slow")
	}
	ds := quickDataset(t)
	res5, err := runTable2(ds, ds.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	res60, err := runTable3(ds, QuickConfig(60*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	or5 := res5.Metric("mean/OR")
	or60 := res60.Metric("mean/OR")
	if diff := or60 - or5; diff > 0.12 || diff < -0.12 {
		t.Errorf("OR mean accuracy moved %.3f -> %.3f with W; paper keeps it flat (43.69 -> 44.49)", or5, or60)
	}
	if orig := res60.Metric("mean/Original"); orig < 0.85 {
		t.Errorf("original mean at W=60s = %.3f, want >= 0.85 (paper 0.92)", orig)
	}
}

// TestTable4Shape pins the FP story: OR massively inflates false
// positives relative to original traffic, concentrated on the classes
// reshaped flows get mistaken for.
func TestTable4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("60s dataset is slow")
	}
	ds := quickDataset(t)
	res, err := runTable4(ds, ds.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	if orig, or := res.Metric("fp5/orig/mean"), res.Metric("fp5/or/mean"); or < orig+0.03 {
		t.Errorf("OR mean FP (%.3f) must clearly exceed original (%.3f) at W=5s (paper 9.38 vs 2.80)", or, orig)
	}
	if orig, or := res.Metric("fp60/orig/mean"), res.Metric("fp60/or/mean"); or < orig+0.03 {
		t.Errorf("OR mean FP (%.3f) must clearly exceed original (%.3f) at W=60s", or, orig)
	}
}

// TestTable5Shape pins the interface sweep: more interfaces never make
// the attack stronger, and I=5 defends at least as well as I=2.
func TestTable5Shape(t *testing.T) {
	ds := quickDataset(t)
	res, err := runTable5(ds, ds.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2 := res.Metric("mean/I2")
	m3 := res.Metric("mean/I3")
	m5 := res.Metric("mean/I5")
	if m5 > m2+0.05 {
		t.Errorf("I=5 accuracy (%.3f) should be <= I=2 (%.3f): more interfaces, more privacy", m5, m2)
	}
	// All configurations defend: every mean is far below original.
	for name, m := range map[string]float64{"I2": m2, "I3": m3, "I5": m5} {
		if m > 0.70 {
			t.Errorf("%s mean accuracy = %.3f; every OR configuration must defend", name, m)
		}
	}
}

// TestTable6Shape pins the efficiency comparison: padding overhead ≫
// morphing overhead ≫ reshaping (zero), while the timing attack still
// succeeds against both byte-inflating defenses.
func TestTable6Shape(t *testing.T) {
	ds := quickDataset(t)
	res, err := runTable6(ds, ds.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	pad := res.Metric("mean/pad_overhead")
	morph := res.Metric("mean/morph_overhead")
	if pad < 0.8 {
		t.Errorf("mean padding overhead = %.3f, want >= 0.8 (paper 1.21)", pad)
	}
	if morph >= pad {
		t.Errorf("morphing overhead (%.3f) must undercut padding (%.3f)", morph, pad)
	}
	if res.Metric("mean/reshape_overhead") != 0 {
		t.Error("reshaping overhead must be identically zero")
	}
	if acc := res.Metric("mean/acc"); acc < 0.55 {
		t.Errorf("timing attack accuracy = %.3f, want >= 0.55 (paper 0.71): padding/morphing don't hide timing", acc)
	}
	// Per-app padding overheads track the paper's Table VI closely
	// (they follow analytically from the calibrated size profiles).
	paper := map[string]float64{"ch.": 4.8574, "ga.": 2.4296, "br.": 0.5555, "do.": 0.0004, "bt.": 0.6382}
	for app, want := range paper {
		got := res.Metric("pad_overhead/" + app)
		if got < want*0.7-0.02 || got > want*1.3+0.02 {
			t.Errorf("%s padding overhead = %.3f, paper %.3f", app, got, want)
		}
	}
}

func TestTable1Shape(t *testing.T) {
	ds := quickDataset(t)
	res, err := runTable1(ds, ds.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Interface means are ordered by their size ranges wherever the
	// interface is populated: i1 < 232 < i2 <= 1540 < i3.
	for _, app := range trace.Apps {
		short := app.Short()
		i1 := res.Metric("or_size/" + short + "/i1")
		i2 := res.Metric("or_size/" + short + "/i2")
		i3 := res.Metric("or_size/" + short + "/i3")
		if i1 > 0 && i1 > 232 {
			t.Errorf("%s interface 1 mean size %.1f outside (0,232]", short, i1)
		}
		if i2 > 0 && (i2 <= 232 || i2 > 1540) {
			t.Errorf("%s interface 2 mean size %.1f outside (232,1540]", short, i2)
		}
		if i3 > 0 && i3 <= 1540 {
			t.Errorf("%s interface 3 mean size %.1f outside (1540,1576]", short, i3)
		}
	}
	// Original means match the calibration targets (Table I column 1).
	if m := res.Metric("orig_size/do."); m < 1550 {
		t.Errorf("downloading original mean size %.1f, want ~1575", m)
	}
	if m := res.Metric("orig_size/up."); m > 180 {
		t.Errorf("uploading original mean size %.1f, want ~133", m)
	}
}

func TestFigure1Runs(t *testing.T) {
	ds := quickDataset(t)
	res, err := runFigure1(ds, ds.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "browsing") {
		t.Error("figure 1 must render all app series")
	}
	// The two modal ranges of §III-C3 are populated overall.
	small := 0.0
	large := 0.0
	for _, app := range trace.Apps {
		small += res.Metric("small_mode/" + app.Short())
		large += res.Metric("large_mode/" + app.Short())
	}
	if small == 0 || large == 0 {
		t.Error("both size modes must carry mass")
	}
}

func TestFigure2And3Run(t *testing.T) {
	ds := quickDataset(t)
	res2, err := runFigure2(ds, ds.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Metric("interfaces") != 3 {
		t.Errorf("figure 2 granted %v interfaces, want 3", res2.Metric("interfaces"))
	}
	res3, err := runFigure3(ds, ds.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Metric("delivered") <= 0 {
		t.Error("figure 3 delivered no frames")
	}
}

func TestFigure4And5Shapes(t *testing.T) {
	ds := quickDataset(t)
	res4, err := runFigure4(ds, ds.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 4: ranges partition, so per-interface spans are narrow
	// and counts sum to the original.
	total := 0.0
	for _, i := range []string{"i1", "i2", "i3"} {
		total += res4.Metric("count/" + i)
		if span := res4.Metric("span/" + i); span > 526 {
			t.Errorf("figure 4 interface %s spans %.0f bytes, must stay within its range", i, span)
		}
	}
	if total != res4.Metric("count/original") {
		t.Error("figure 4 partition lost packets")
	}

	res5, err := runFigure5(ds, ds.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 5: modulo scheduling spreads the full size range onto
	// every interface.
	for _, i := range []string{"i1", "i2", "i3"} {
		if span := res5.Metric("span/" + i); span < 1000 {
			t.Errorf("figure 5 interface %s spans only %.0f bytes; modulo OR must cover the range", i, span)
		}
	}
}

// TestRSSIExtension pins §V-A: linking succeeds without TPC and fails
// with per-interface TPC.
func TestRSSIExtension(t *testing.T) {
	ds := quickDataset(t)
	res, err := runRSSI(ds, ds.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metric("link/plain") < 0.99 {
		t.Errorf("plain linking = %.3f, want ~1", res.Metric("link/plain"))
	}
	if res.Metric("link/tpc") > 0.5 {
		t.Errorf("TPC linking = %.3f, want degraded", res.Metric("link/tpc"))
	}
}

// TestCombinedExtension pins §V-C: OR+morphing defends at least as
// well as OR alone while downloading/uploading stay high.
func TestCombinedExtension(t *testing.T) {
	ds := quickDataset(t)
	res, err := runCombined(ds, ds.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metric("mean/combined") > res.Metric("mean/or")+0.02 {
		t.Errorf("combined mean (%.3f) should not exceed OR alone (%.3f)",
			res.Metric("mean/combined"), res.Metric("mean/or"))
	}
	for _, app := range []string{"do.", "up."} {
		if acc := res.Metric("acc/combined/" + app); acc < 0.85 {
			t.Errorf("combined %s = %.3f, paper keeps do./up. above 0.90", app, acc)
		}
	}
}

func TestRegistryAndRunnerByName(t *testing.T) {
	names := map[string]bool{}
	for _, r := range Registry() {
		if names[r.Name] {
			t.Fatalf("duplicate experiment %q", r.Name)
		}
		names[r.Name] = true
		if _, err := RunnerByName(r.Name); err != nil {
			t.Errorf("RunnerByName(%q): %v", r.Name, err)
		}
	}
	for _, want := range []string{"fig1", "fig2", "fig3", "fig4", "fig5", "table1", "table2", "table3", "table4", "table5", "table6", "rssi", "combined"} {
		if !names[want] {
			t.Errorf("registry missing %q", want)
		}
	}
	if _, err := RunnerByName("table99"); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestEvalSchemeDeterministic(t *testing.T) {
	ds := quickDataset(t)
	s := mustNamed(ds, "OR")
	a := ds.eng.EvalSchemes(ds, []Scheme{s})[0]
	b := ds.eng.EvalSchemes(ds, []Scheme{s})[0]
	if a.String() != b.String() {
		t.Fatal("EvalSchemes is not deterministic")
	}
}

func TestResultMetricPanicsOnUnknown(t *testing.T) {
	r := &Result{Name: "x", Metrics: map[string]float64{}}
	defer func() {
		if recover() == nil {
			t.Fatal("Metric on unknown key should panic")
		}
	}()
	r.Metric("nope")
}
