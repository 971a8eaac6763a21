package experiments

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"trafficreshape/internal/appgen"
	"trafficreshape/internal/trace"
)

func captureCfg() Config {
	cfg := QuickConfig(5 * time.Second)
	cfg.TrainDuration /= 4
	cfg.TestDuration /= 4
	return cfg
}

// TestTraceSetRefAddressesContent: refs are pure functions of the
// traces, slot-faithful, and canonicalize into distinct cache keys.
func TestTraceSetRefAddressesContent(t *testing.T) {
	cfg := captureCfg()
	browsing := appgen.Generate(trace.Browsing, cfg.TestDuration, 1)
	video := appgen.Generate(trace.Video, cfg.TestDuration, 2)

	set := &TraceSet{Test: map[trace.App]*trace.Trace{trace.Browsing: browsing, trace.Video: video}}
	ref := set.Ref()
	if ref.Empty() || set.Empty() {
		t.Fatal("non-empty set reported empty")
	}
	if len(ref.Test) != trace.NumApps {
		t.Fatalf("ref has %d test slots, want %d", len(ref.Test), trace.NumApps)
	}
	if ref.Test[trace.Browsing] != trace.Digest(browsing) || ref.Test[trace.Video] != trace.Digest(video) {
		t.Error("ref slots do not hold the traces' digests")
	}
	if ref.Test[trace.Gaming] != "" || len(ref.Train) != 0 {
		t.Error("synthetic slots must stay empty")
	}
	if got := len(ref.Digests()); got != 2 {
		t.Errorf("ref names %d digests, want 2", got)
	}
	if ref.Key() == "" || ref.Key() == (TraceSetRef{}).Key() {
		t.Error("captured ref key collides with the synthetic key")
	}

	other := &TraceSet{Train: set.Test}
	if other.Ref().Key() == ref.Key() {
		t.Error("train and test roles must address differently")
	}
	if !(&TraceSet{}).Ref().Empty() || !(*TraceSet)(nil).Ref().Empty() {
		t.Error("empty sets must produce empty refs")
	}
}

// TestTraceStoreResolveRoundTrip: a store filled from a set resolves
// the set's ref back to the identical traces, and reports a missing
// digest as an error naming it.
func TestTraceStoreResolveRoundTrip(t *testing.T) {
	cfg := captureCfg()
	set := &TraceSet{
		Train: map[trace.App]*trace.Trace{trace.Chatting: appgen.Generate(trace.Chatting, cfg.TrainDuration, 3)},
		Test:  map[trace.App]*trace.Trace{trace.Chatting: appgen.Generate(trace.Chatting, cfg.TestDuration, 4)},
	}
	store := NewTraceStore()
	store.AddResolved(set.Ref(), set)
	if n := len(store.Digests()); n != 2 {
		t.Fatalf("store holds %d traces, want 2", n)
	}
	got, err := store.Resolve(set.Ref())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Train, set.Train) || !reflect.DeepEqual(got.Test, set.Test) {
		t.Error("resolved set differs from the original")
	}
	if set, err := store.Resolve(TraceSetRef{}); err != nil || set != nil {
		t.Errorf("empty ref must resolve to nil set, got %v, %v", set, err)
	}

	missing := TraceSetRef{Test: make([]string, trace.NumApps)}
	missing.Test[trace.Gaming] = "feedfacefeedface"
	if _, err := store.Resolve(missing); err == nil {
		t.Error("missing digest resolved without error")
	}
}

// TestBuildDatasetFromMixesCapturedAndSynthetic is the seam's core
// contract: a dataset built from a partial captured set uses the
// captured traces where present, generates the rest bit-identically
// to a full synthetic build, and an empty set reproduces BuildDataset
// exactly.
func TestBuildDatasetFromMixesCapturedAndSynthetic(t *testing.T) {
	cfg := captureCfg()
	synthetic, err := BuildDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Captured traffic from a different seed, so divergence is visible.
	capturedVideo := appgen.Generate(trace.Video, cfg.TestDuration, 0xc0ffee)
	set := &TraceSet{Test: map[trace.App]*trace.Trace{trace.Video: capturedVideo}}
	mixed, err := serialEngine.BuildDatasetFrom(cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	if mixed.Test[trace.Video] != capturedVideo {
		t.Error("captured slot was not used")
	}
	for _, app := range trace.Apps {
		if app == trace.Video {
			continue
		}
		if trace.Digest(mixed.Test[app]) != trace.Digest(synthetic.Test[app]) {
			t.Errorf("synthetic slot %v diverged from the pure synthetic build", app)
		}
	}
	if _, ok := mixed.TraceRef(); !ok {
		t.Error("captured dataset does not report a trace ref")
	}
	if _, ok := synthetic.TraceRef(); ok {
		t.Error("synthetic dataset reports a trace ref")
	}

	plain, err := serialEngine.BuildDatasetFrom(cfg, &TraceSet{})
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range trace.Apps {
		if trace.Digest(plain.Test[app]) != trace.Digest(synthetic.Test[app]) {
			t.Fatalf("empty-set build diverged from BuildDataset at %v", app)
		}
	}
	if _, ok := plain.TraceRef(); ok {
		t.Error("empty-set dataset reports a trace ref")
	}
}

// TestCellEvaluatorResolvesCapturedCells: the worker-side evaluator
// reproduces a captured cell bit-identically once (and only once) its
// store holds the named traces, and answers the repeated cell from its
// result cache.
func TestCellEvaluatorResolvesCapturedCells(t *testing.T) {
	cfg := captureCfg()
	capturedUp := appgen.Generate(trace.Uploading, cfg.TestDuration, 0xfeed)
	set := &TraceSet{Test: map[trace.App]*trace.Trace{trace.Uploading: capturedUp}}
	ds, err := serialEngine.BuildDatasetFrom(cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := ds.TraceRef()
	want := EvalCell(ds, mustNamed(ds, "OR"), trace.Uploading)

	ev := NewCellEvaluator(nil, 0)
	if _, _, err := ev.Eval(cfg, ref, "OR", trace.Uploading); err == nil {
		t.Fatal("evaluator resolved a captured cell with an empty store")
	}
	ev.Store().AddResolved(set.Ref(), set)
	got, cached, err := ev.Eval(cfg, ref, "OR", trace.Uploading)
	if err != nil || cached {
		t.Fatalf("first evaluation: cached %v, err %v", cached, err)
	}
	if len(got) != len(want) {
		t.Fatalf("evaluator returned %d families, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != *want[i] {
			t.Errorf("family %d: evaluator's captured cell differs from the coordinator-side evaluation", i)
		}
	}
	again, cached, err := ev.Eval(cfg, ref, "OR", trace.Uploading)
	if err != nil || !cached || !reflect.DeepEqual(again, got) {
		t.Errorf("repeated cell: cached %v, err %v, same result %v; want a result-cache hit", cached, err, reflect.DeepEqual(again, got))
	}
}

// TestBoundedTraceStoreEvictsOldest: a store bounded at two traces
// drops the first on the third Put, and the trace-have digest list
// (what a worker announces) shows exactly the survivors.
func TestBoundedTraceStoreEvictsOldest(t *testing.T) {
	s := newTraceStore(2)
	var digests []string
	for i, app := range []trace.App{trace.Browsing, trace.Video, trace.BitTorrent} {
		digests = append(digests, s.Put(appgen.Generate(app, time.Second, uint64(i+1))))
	}
	if _, ok := s.Get(digests[0]); ok {
		t.Fatal("third Put did not evict the first trace")
	}
	want := []string{digests[1], digests[2]}
	sort.Strings(want)
	if got := s.Digests(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Digests() = %v, want %v", got, want)
	}
}
