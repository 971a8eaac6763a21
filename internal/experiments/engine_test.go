package experiments

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"time"

	"trafficreshape/internal/reshape"
	"trafficreshape/internal/stats"
)

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
		par := ds.WithEngine(NewEngine(workers))
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
		par := ds.WithEngine(NewEngine(workers))
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
	ds := quickDataset(t).WithEngine(NewEngine(4))
	s := SchedulerScheme("OR", func(*stats.RNG) reshape.Scheduler { return reshape.Recommended() })
	want := EvalScheme(ds, s).String()

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
				outs[i] = EvalScheme(ds, s).String()
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
				t.Errorf("concurrent EvalScheme %d diverged", i)
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
	if w := NewEngine(0).Workers(); w < 1 {
		t.Fatalf("NewEngine(0) selected %d workers", w)
	}
	if w := NewEngine(-3).Workers(); w < 1 {
		t.Fatalf("NewEngine(-3) selected %d workers", w)
	}
	if w := NewEngine(6).Workers(); w != 6 {
		t.Fatalf("NewEngine(6) selected %d workers", w)
	}
}

// TestDatasetForWEngineAffinity pins the cache-rebind rule: a derived
// dataset cached by a serial run must adopt the requester's engine on
// later hits (while sharing the heavy contents), so switching to
// WithEngine never silently evaluates cached windows serially.
func TestDatasetForWEngineAffinity(t *testing.T) {
	ds := quickDataset(t)
	w := 2 * time.Second
	d1, err := datasetForW(ds, ds.Cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if d1.engine() != serialEngine {
		t.Fatal("serially requested derived dataset must stay serial")
	}
	e := NewEngine(4)
	d2, err := datasetForW(ds.WithEngine(e), ds.Cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if d2.engine() != e {
		t.Error("cached derived dataset did not adopt the requester's engine")
	}
	if reflect.ValueOf(d1.Test).Pointer() != reflect.ValueOf(d2.Test).Pointer() {
		t.Error("rebound dataset rebuilt instead of sharing the cached contents")
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
	if _, ok := c.entries[datasetCacheKey{cfg: Config{Seed: 1}}]; ok {
		t.Fatalf("key %d did not evict key 1", maxCachedDatasets+1)
	}
	if len(c.entries) != maxCachedDatasets || len(c.order) != maxCachedDatasets {
		t.Fatalf("cache holds %d entries (%d queued), want %d", len(c.entries), len(c.order), maxCachedDatasets)
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
