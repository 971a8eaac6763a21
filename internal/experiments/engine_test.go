package experiments

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"time"
)

// withEngine returns a shallow copy of ds whose evaluations run on
// e's worker pool. The classifiers, test traces and caches are shared:
// they are read-only after construction (or locked), which the
// race-mode tests pin down.
func withEngine(ds *Dataset, e *Engine) *Dataset {
	out := *ds
	out.eng = e
	return &out
}

// sameResult asserts two results are byte-identical: rendered text
// and every metric, bit for bit.
func sameResult(t *testing.T, label string, serial, parallel *Result) {
	t.Helper()
	if serial.Name != parallel.Name {
		t.Fatalf("%s: name %q != %q", label, parallel.Name, serial.Name)
	}
	if serial.Text != parallel.Text {
		t.Errorf("%s: rendered tables differ\nserial:\n%s\nparallel:\n%s", label, serial.Text, parallel.Text)
	}
	if !reflect.DeepEqual(serial.Metrics, parallel.Metrics) {
		t.Errorf("%s: metrics differ\nserial:   %v\nparallel: %v", label, serial.Metrics, parallel.Metrics)
	}
}

// TestEngineBitIdenticalToSerial is the engine's core contract: the
// same Config.Seed through the serial path and through the engine at
// workers ∈ {1, 4, 8} yields byte-identical Result tables.
func TestEngineBitIdenticalToSerial(t *testing.T) {
	ds := quickDataset(t)
	serial2, err := runTable2(ds, ds.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	serial5, err := runTable5(ds, ds.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8} {
		par := withEngine(ds, NewEngine(workers))
		par2, err := runTable2(par, par.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "table2", serial2, par2)
		par5, err := runTable5(par, par.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "table5", serial5, par5)
	}
}

// TestEngineBitIdenticalTable3 extends the contract to the W = 60 s
// grid (Table III), whose dataset is derived through the per-window
// cache.
func TestEngineBitIdenticalTable3(t *testing.T) {
	if testing.Short() {
		t.Skip("60s dataset is slow")
	}
	ds := quickDataset(t)
	serial, err := runTable3(ds, ds.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		par := withEngine(ds, NewEngine(workers))
		// Fresh cache: force the parallel leg to rebuild the derived
		// W = 60 s dataset through its own pool rather than reusing
		// the serially built entry.
		par.cache = newDatasetCache()
		res, err := runTable3(par, par.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "table3", serial, res)
	}
}

// TestEngineBuildDatasetDeterministic: dataset construction itself is
// sharded (per-app generation, per-family training); the outcome must
// not depend on the worker count.
func TestEngineBuildDatasetDeterministic(t *testing.T) {
	cfg := QuickConfig(5 * time.Second)
	cfg.TrainDuration /= 4
	cfg.TestDuration /= 4
	a, err := NewEngine(1).BuildDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEngine(8).BuildDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Classifiers) != len(b.Classifiers) {
		t.Fatalf("classifier counts differ: %d vs %d", len(a.Classifiers), len(b.Classifiers))
	}
	for app, tra := range a.Test {
		trb := b.Test[app]
		if !reflect.DeepEqual(tra.Packets, trb.Packets) {
			t.Errorf("test trace for %v differs between worker counts", app)
		}
	}
	for i := range a.Classifiers {
		if !reflect.DeepEqual(a.Classifiers[i].Scaler, b.Classifiers[i].Scaler) {
			t.Errorf("classifier %d scaler differs between worker counts", i)
		}
	}
}

// TestEngineConcurrentRunsShareClassifier exercises the race surface
// the engine depends on: many concurrent evaluations against ONE
// dataset (one set of trained classifiers, one test-trace map). Run
// under -race this pins that classification is read-only.
func TestEngineConcurrentRunsShareClassifier(t *testing.T) {
	ds := withEngine(quickDataset(t), NewEngine(4))
	s := mustNamed(ds, "OR")
	want := ds.eng.EvalSchemes(ds, []Scheme{s})[0].String()

	var wg sync.WaitGroup
	outs := make([]string, 8)
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Even goroutines re-run the sharded scheme evaluation;
			// odd goroutines run a whole table against the same
			// shared dataset.
			if i%2 == 0 {
				outs[i] = ds.eng.EvalSchemes(ds, []Scheme{s})[0].String()
				return
			}
			res, err := runTable5(ds, ds.Cfg)
			if err == nil {
				outs[i] = res.Text
			}
		}(i)
	}
	wg.Wait()
	var table5 string
	for i, got := range outs {
		if i%2 == 0 {
			if got != want {
				t.Errorf("concurrent EvalSchemes %d diverged", i)
			}
			continue
		}
		if got == "" {
			t.Errorf("concurrent runTable5 %d failed", i)
		} else if table5 == "" {
			table5 = got
		} else if got != table5 {
			t.Errorf("concurrent runTable5 %d diverged", i)
		}
	}
}

// TestEngineConcurrentSplitFirstBuild is the sibling for the
// dataset's lazily built fragments: on a freshly built dataset, many
// goroutines evaluate OR+split cells and the splitting runner at once,
// so under -race the first builds contend on the dataset's
// OnceValues. Every evaluation equals the serial grid's.
func TestEngineConcurrentSplitFirstBuild(t *testing.T) {
	ref := quickDataset(t)
	want := ref.eng.EvalSchemes(ref, []Scheme{mustNamed(ref, "OR+split")})[0].String()
	ds, err := NewEngine(4).BuildDataset(ref.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := mustNamed(ds, "OR+split")

	var wg sync.WaitGroup
	outs := make([]string, 8)
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Even goroutines evaluate the sharded OR+split grid; odd
			// goroutines run the splitting runner, whose cost figures
			// read the same fragments.
			if i%2 == 0 {
				outs[i] = ds.eng.EvalSchemes(ds, []Scheme{s})[0].String()
				return
			}
			res, err := runSplitting(ds, ds.Cfg)
			if err == nil {
				outs[i] = res.Text
			}
		}(i)
	}
	wg.Wait()
	var splitting string
	for i, got := range outs {
		if i%2 == 0 {
			if got != want {
				t.Errorf("concurrent OR+split EvalSchemes %d diverged from the serial grid", i)
			}
			continue
		}
		if got == "" {
			t.Errorf("concurrent runSplitting %d failed", i)
		} else if splitting == "" {
			splitting = got
		} else if got != splitting {
			t.Errorf("concurrent runSplitting %d diverged", i)
		}
	}
}

// TestEngineRunAllOrderedStreaming: the parallel collector must emit
// renderings in exact registry order with the serial engine's bytes.
// Quick full runs are heavy, so this drives the collector through the
// real registry at two worker counts and compares the streams.
func TestEngineRunAllOrderedStreaming(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry run is slow")
	}
	var serialOut, parOut bytes.Buffer
	serialRes, err := RunAll(&serialOut, true)
	if err != nil {
		t.Fatal(err)
	}
	parRes, err := NewEngine(4).RunAll(&parOut, true)
	if err != nil {
		t.Fatal(err)
	}
	if serialOut.String() != parOut.String() {
		t.Error("parallel RunAll output bytes differ from serial")
	}
	if len(serialRes) != len(parRes) {
		t.Fatalf("result counts differ: %d vs %d", len(serialRes), len(parRes))
	}
	for name, sr := range serialRes {
		pr, ok := parRes[name]
		if !ok {
			t.Errorf("parallel run missing %q", name)
			continue
		}
		sameResult(t, name, sr, pr)
	}
}

// TestEngineRunNeedsDatasetOnly: Engine.Run must build a dataset only
// for runners that need one and still produce the serial result.
func TestEngineRunNoDatasetRunner(t *testing.T) {
	cfg := QuickConfig(5 * time.Second)
	res, err := NewEngine(4).Run("rssi", cfg)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := runRSSI(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "rssi", serial, res)
}

func TestEngineWorkersDefault(t *testing.T) {
	if w := NewEngine(0).workers; w < 1 {
		t.Fatalf("NewEngine(0) selected %d workers", w)
	}
	if w := NewEngine(-3).workers; w < 1 {
		t.Fatalf("NewEngine(-3) selected %d workers", w)
	}
	if w := NewEngine(6).workers; w != 6 {
		t.Fatalf("NewEngine(6) selected %d workers", w)
	}
}

// TestDatasetCacheBound pins the dataset cache's FIFO bound: the
// entry past maxCachedDatasets evicts the oldest key, the survivors
// stay cached, and an evicted key rebuilds exactly once on next use
// however many callers ask for it at the same time.
func TestDatasetCacheBound(t *testing.T) {
	c := newDatasetCache()
	var mu sync.Mutex
	builds := make(map[uint64]int)
	get := func(seed uint64) {
		cfg := Config{Seed: seed}
		ds, err := c.get(datasetCacheKey{cfg: cfg}, func() (*Dataset, error) {
			mu.Lock()
			builds[seed]++
			mu.Unlock()
			return &Dataset{Cfg: cfg}, nil
		})
		if err != nil || ds.Cfg.Seed != seed {
			t.Errorf("get(%d) = %+v, %v", seed, ds, err)
		}
	}
	for seed := uint64(1); seed <= maxCachedDatasets+1; seed++ {
		get(seed)
	}
	if _, ok := c.entries.get(datasetCacheKey{cfg: Config{Seed: 1}}); ok {
		t.Fatalf("key %d did not evict key 1", maxCachedDatasets+1)
	}
	if n := len(c.entries.keys()); n != maxCachedDatasets {
		t.Fatalf("cache holds %d entries, want %d", n, maxCachedDatasets)
	}
	get(2)
	if builds[2] != 1 {
		t.Fatalf("surviving key 2 built %d times, want 1", builds[2])
	}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); get(1) }()
	}
	wg.Wait()
	if builds[1] != 2 {
		t.Fatalf("evicted key 1 built %d times in total, want 2 (once before eviction, once after)", builds[1])
	}
}
