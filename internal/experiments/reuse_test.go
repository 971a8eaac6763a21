package experiments

import (
	"io"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"trafficreshape/internal/appgen"
	"trafficreshape/internal/attack"
	"trafficreshape/internal/defense"
	"trafficreshape/internal/ml"
	"trafficreshape/internal/trace"
)

// countingBackend counts the cells handed to the backend it wraps.
type countingBackend struct {
	Backend
	cells atomic.Int64
}

func (b *countingBackend) EvalGrid(ds *Dataset, schemes []Scheme) [][]*ml.Confusion {
	b.cells.Add(int64(len(schemes) * trace.NumApps))
	return b.Backend.EvalGrid(ds, schemes)
}

func countingEngine(workers int) (*Engine, *countingBackend) {
	eng := NewEngine(workers)
	b := &countingBackend{Backend: NewLocalBackend(eng.Pool())}
	return eng.WithBackend(b), b
}

// TestRunAllEvaluatesEachCellOnce: the 182 grid cells the runners of
// one quick RunAll ask for hold 126 distinct (dataset, scheme, app)
// cells once scheme aliases resolve, and the backend sees each of
// them once.
func TestRunAllEvaluatesEachCellOnce(t *testing.T) {
	eng, b := countingEngine(2)
	if _, err := eng.RunAll(io.Discard, true); err != nil {
		t.Fatal(err)
	}
	if got := b.cells.Load(); got != 126 {
		t.Fatalf("backend evaluated %d cells, want 126", got)
	}
}

// TestBuildDatasetHasNoCellMemo: outside RunAll nothing is memoised
// across calls, so evaluating the same grid twice evaluates it twice.
func TestBuildDatasetHasNoCellMemo(t *testing.T) {
	eng, b := countingEngine(2)
	ds, err := eng.BuildDataset(QuickConfig(5 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	schemes := StandardSchemes()
	first := eng.EvalSchemes(ds, schemes)
	second := eng.EvalSchemes(ds, schemes)
	if want := int64(2 * len(schemes) * trace.NumApps); b.cells.Load() != want {
		t.Fatalf("backend evaluated %d cells, want %d", b.cells.Load(), want)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("the two evaluations differ")
	}
}

// TestEvalSchemesDedupsWithinCall: one EvalSchemes call evaluates each
// scheme name once, aliases included, and hands every listed scheme
// its canonical scheme's result.
func TestEvalSchemesDedupsWithinCall(t *testing.T) {
	eng, b := countingEngine(2)
	ds := withEngine(quickDataset(t), eng)
	names := []string{"OR", "OR-I3", policyPoints[0], "Original", "OR"}
	schemes := make([]Scheme, len(names))
	for i, name := range names {
		schemes[i] = mustNamed(ds, name)
	}
	got := eng.EvalSchemes(ds, schemes)
	if want := int64(2 * trace.NumApps); b.cells.Load() != want {
		t.Fatalf("backend evaluated %d cells, want %d", b.cells.Load(), want)
	}
	for _, i := range []int{1, 2, 4} {
		if *got[i] != *got[0] {
			t.Errorf("%s: result differs from OR's", names[i])
		}
	}
}

// TestCellMemoCrossedClaims: two callers asking for the same schemes
// in opposite orders, concurrently, finish without deadlock, evaluate
// each scheme once between them, and get the unmemoised results.
func TestCellMemoCrossedClaims(t *testing.T) {
	eng, b := countingEngine(2)
	ds := withEngine(quickDataset(t), eng)
	names := []string{"Original", "FH", "OR", "OR-I2"}
	want := make(map[string]*ml.Confusion)
	for _, name := range names {
		want[name] = eng.EvalSchemes(ds, []Scheme{mustNamed(ds, name)})[0]
	}
	b.cells.Store(0)

	memoised := *ds
	memoised.cells = newCellMemo()
	orders := [][]string{names, {"OR-I2", "OR", "FH", "Original"}}
	var wg sync.WaitGroup
	got := make([][]*ml.Confusion, len(orders))
	for i, order := range orders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			schemes := make([]Scheme, len(order))
			for j, name := range order {
				schemes[j] = mustNamed(&memoised, name)
			}
			got[i] = eng.EvalSchemes(&memoised, schemes)
		}()
	}
	wg.Wait()
	if want := int64(len(names) * trace.NumApps); b.cells.Load() != want {
		t.Fatalf("backend evaluated %d cells, want %d", b.cells.Load(), want)
	}
	for i, order := range orders {
		for j, name := range order {
			if *got[i][j] != *want[name] {
				t.Errorf("caller %d, %s: memoised result differs", i, name)
			}
		}
	}
}

// capturedOtherTraffic builds cfg's dataset from captured traffic that
// is not cfg's synthetic traffic (it is another seed's).
func capturedOtherTraffic(t *testing.T, cfg Config) *Dataset {
	t.Helper()
	other := cfg
	other.Seed++
	ds, err := serialEngine.BuildDatasetFrom(cfg, serialEngine.SyntheticTraceSet(other))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestTable6IgnoresCapturedTraffic: Table VI trains and tests on
// cfg's synthetic traffic whatever traffic the dataset holds, so a
// dataset built from other captured traffic renders the same table as
// the synthetic one, which reuses its own training set and test
// traces.
func TestTable6IgnoresCapturedTraffic(t *testing.T) {
	syn := quickDataset(t)
	cfg := syn.Cfg
	capt := capturedOtherTraffic(t, cfg)
	if reflect.DeepEqual(capt.train.Examples, syn.train.Examples) {
		t.Fatal("captured and synthetic training sets are equal; the test cannot tell them apart")
	}
	want, err := runTable6(syn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runTable6(capt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "table6", want, got)
}

// TestTable6MorphOverheadMatchesReference: Table VI's morph overheads
// are cfg's synthetic test traffic morphed along the paper's chain,
// each application by a fresh model toward its target and its own
// seed, priced on a clone, on the dataset's own traffic and on other
// captured traffic alike.
func TestTable6MorphOverheadMatchesReference(t *testing.T) {
	syn := quickDataset(t)
	cfg := syn.Cfg
	test := appgen.GenerateAll(cfg.TestDuration, cfg.Seed^0x5eed)
	chain := defense.PaperMorphChain()
	want := make(map[trace.App]float64)
	for _, app := range trace.Apps {
		target, ok := chain[app]
		if !ok {
			want[app] = 0
			continue
		}
		model, err := defense.NewMorphModel(test[target])
		if err != nil {
			t.Fatal(err)
		}
		morphed := test[app].Clone()
		model.Morpher((cfg.Seed ^ 0x304ffed) + uint64(app)).ApplyInPlace(morphed)
		want[app] = defense.DominantOverhead(test[app], morphed)
	}
	for label, ds := range map[string]*Dataset{"own": syn, "captured": capturedOtherTraffic(t, cfg)} {
		res, err := runTable6(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, app := range trace.Apps {
			if got := res.Metric("morph_overhead/" + app.Short()); got != want[app] {
				t.Errorf("%s: morph_overhead/%s = %v, want %v", label, app.Short(), got, want[app])
			}
		}
	}
}

// TestDatasetMorphModelShared: concurrent callers get one set of
// morph tables per target, on a derived dataset and on a shallow copy
// of it alike.
func TestDatasetMorphModelShared(t *testing.T) {
	ds := quickDataset(t)
	d1, err := datasetForW(ds, ds.Cfg, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	copied := *d1
	d2 := &copied
	const callers = 4
	var got [2][trace.NumApps][callers]*defense.MorphModel
	var wg sync.WaitGroup
	for c, d := range []*Dataset{d1, d2} {
		for _, app := range trace.Apps {
			for k := 0; k < callers; k++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					m, err := d.MorphModel(app)
					if err != nil {
						t.Error(err)
						return
					}
					got[c][app][k] = m
				}()
			}
		}
	}
	wg.Wait()
	for _, app := range trace.Apps {
		first := got[0][app][0]
		for c := range got {
			for k, m := range got[c][app] {
				if m != first {
					t.Errorf("%v: dataset %d caller %d got tables %p, want %p", app, c, k, m, first)
				}
			}
		}
	}
}

// TestDatasetSplitTestCached: each application's fragments are
// exactly defense.AppendSplit of its test trace, built once (a second
// call returns the same backing array), and the OR+split cells of a
// dataset literal without the builds, which fragments afresh per
// cell, equal the built dataset's family by family.
func TestDatasetSplitTestCached(t *testing.T) {
	ds := quickDataset(t)
	bare := &Dataset{Cfg: ds.Cfg, Classifiers: ds.Classifiers, Test: ds.Test}
	cached, fresh := mustNamed(ds, "OR+split"), mustNamed(bare, "OR+split")
	for _, app := range trace.Apps {
		got := ds.splitTest(app)
		want := defense.AppendSplit(new(trace.Trace), ds.Test[app], splitAt, headerBytes)
		if !slices.Equal(got.Packets, want.Packets) {
			t.Errorf("%v: cached fragments (%d packets) differ from AppendSplit's (%d)", app, got.Len(), want.Len())
		}
		if again := ds.splitTest(app); unsafe.SliceData(again.Packets) != unsafe.SliceData(got.Packets) {
			t.Errorf("%v: a second call built the fragments again", app)
		}
		gotConfs, wantConfs := EvalCell(ds, cached, app), EvalCell(bare, fresh, app)
		for i, clf := range ds.Classifiers {
			if *gotConfs[i] != *wantConfs[i] {
				t.Errorf("%v: %s confusion over the cached fragments differs from the uncached dataset's", app, clf.Model.Name())
			}
		}
	}
}

// TestAttackerAblationTreeTrainsOnSyntheticTraffic: on a dataset built
// from captured traffic, the ablation's extra tree is still trained on
// cfg's regenerated synthetic traffic, and attacks the dataset's own
// flows.
func TestAttackerAblationTreeTrainsOnSyntheticTraffic(t *testing.T) {
	cfg := QuickConfig(5 * time.Second)
	capt := capturedOtherTraffic(t, cfg)
	res, err := runAttackerAblation(capt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := attack.Train(appgen.GenerateAll(cfg.TrainDuration, cfg.Seed), attack.TrainOptions{
		W: cfg.W, Seed: cfg.Seed ^ 0xbeef, Trainer: &ml.TreeTrainer{},
	})
	if err != nil {
		t.Fatal(err)
	}
	for key, scheme := range map[string]string{"orig/tree": "Original", "or/tree": "OR"} {
		flows, truth := schemeFlows(capt, mustNamed(capt, scheme))
		if want := tree.AttackFlows(flows, truth, cfg.W).MeanAccuracy(); res.Metric(key) != want {
			t.Errorf("%s = %v, want %v", key, res.Metric(key), want)
		}
	}
}
