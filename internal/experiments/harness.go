// Package experiments regenerates every table and figure of the
// paper's evaluation (§IV) plus the §V extensions, over the synthetic
// workload substrate. Each experiment is a named Runner producing a
// Result: a rendered table/figure plus machine-checkable metrics that
// the integration tests pin against the paper's shape.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"trafficreshape/internal/attack"
	"trafficreshape/internal/defense"
	"trafficreshape/internal/mac"
	"trafficreshape/internal/ml"
	"trafficreshape/internal/reshape"
	"trafficreshape/internal/stats"
	"trafficreshape/internal/trace"
)

// Config sizes an experiment run.
type Config struct {
	// Seed drives every random choice; the same Config regenerates
	// identical tables.
	Seed uint64
	// TrainDuration is the per-application length of the adversary's
	// training traces.
	TrainDuration time.Duration
	// TestDuration is the per-application length of the attacked
	// traces.
	TestDuration time.Duration
	// W is the eavesdropping window (Tables II/IV use 5 s, III 60 s).
	W time.Duration
}

// DefaultConfig returns the full-fidelity configuration for the
// given eavesdropping window.
func DefaultConfig(w time.Duration) Config {
	cfg := Config{Seed: 20110620, W: w} // ICDCS'11 presentation date
	switch {
	case w >= 60*time.Second:
		cfg.TrainDuration = 1800 * time.Second
		cfg.TestDuration = 1200 * time.Second
	default:
		cfg.TrainDuration = 600 * time.Second
		cfg.TestDuration = 400 * time.Second
	}
	return cfg
}

// QuickConfig returns a down-scaled configuration for tests.
func QuickConfig(w time.Duration) Config {
	cfg := Config{Seed: 42, W: w}
	if w >= 60*time.Second {
		cfg.TrainDuration = 900 * time.Second
		cfg.TestDuration = 600 * time.Second
	} else {
		cfg.TrainDuration = 240 * time.Second
		cfg.TestDuration = 160 * time.Second
	}
	return cfg
}

// Dataset bundles the trained adversaries and held-out test traffic,
// plus the morphing tables toward each application's test trace
// (MorphModel), which the OR+morph cells and Table VI share.
type Dataset struct {
	Cfg Config
	// Classifiers holds one trained model per family (SVM, MLP, kNN,
	// NB). Every scheme is attacked by all of them and the strongest
	// result is reported — the paper's "highest classification
	// accuracy" methodology.
	Classifiers []*attack.Classifier
	Test        map[trace.App]*trace.Trace

	// train is the training traffic the Classifiers were fitted on,
	// windowed at Cfg.W and extracted: Table VI and the attacker
	// ablation fit their extra classifiers on it instead of
	// regenerating the traffic (see ownTraffic).
	train *attack.TrainingSet
	// cells, when set, shares grid results between the runners of
	// one RunAll (see cellMemo); nil gives each EvalSchemes call a
	// memo of its own.
	cells *cellMemo
	// eng is the engine that built the dataset: its grid evaluations
	// and the datasets derived from it run there. Each (scheme, app)
	// cell draws from its own SplitAt stream, so the results are
	// bit-identical at any worker count.
	eng *Engine
	// cache deduplicates derived datasets at other eavesdropping
	// windows (Tables III/IV both need W = 60 s) across concurrently
	// running experiments.
	cache *datasetCache
	// morphs builds, once per morph target, the immutable morphing
	// tables toward that application's test trace: the OR+morph grid
	// cells and Table VI share each build, and shallow copies of the
	// dataset share the entries, like the test traces. Zero-value
	// datasets leave them nil (see MorphModel).
	morphs [trace.NumApps]func() (*defense.MorphModel, error)
	// src, when non-nil, is the captured traffic this dataset was
	// built from (BuildDatasetFrom); srcRef holds its content-digest
	// address. A dataset with a source is no longer a pure function of
	// its Config alone — it is a pure function of (Config, srcRef),
	// which is exactly what a distributed backend ships: the ref in
	// the cell request, the traces through the preload frames.
	src    *TraceSet
	srcRef TraceSetRef
}

// Source returns the captured traffic the dataset was built from
// (nil for fully synthetic datasets).
func (ds *Dataset) Source() *TraceSet { return ds.src }

// TraceRef returns the content-digest address of the dataset's
// captured traffic and whether the dataset has one. Fully synthetic
// datasets report false: their cells are addressed by Config alone.
func (ds *Dataset) TraceRef() (TraceSetRef, bool) {
	if ds.src == nil {
		return TraceSetRef{}, false
	}
	return ds.srcRef, true
}

// MorphModel returns the morphing tables toward target's test trace,
// built on first use and shared from then on. Datasets constructed
// without the tables (zero-value literals) build them afresh per call.
func (ds *Dataset) MorphModel(target trace.App) (*defense.MorphModel, error) {
	if build := ds.morphs[target]; build != nil {
		return build()
	}
	return defense.NewMorphModel(ds.Test[target])
}

// BuildDataset generates training traffic, trains one adversary per
// classifier family on its one training set, and generates unseen
// test traffic (see Engine.BuildDataset).
func BuildDataset(cfg Config) (*Dataset, error) {
	return serialEngine.BuildDataset(cfg)
}

// Scheme is one defense configuration under attack: it turns an
// application's trace into the sub-flows the eavesdropper observes
// (each sub-flow appears under its own MAC address).
type Scheme struct {
	Name string
	// partition splits the trace; a single-element result models an
	// undefended flow. rng is the shard's private stream: the engine
	// derives one per (scheme, app) cell, so a partition that draws
	// from it stays deterministic under any worker count. Sub-flows
	// it builds live in sc's memory; parts that alias the input
	// (Original's) are never sc's and are never recycled.
	partition func(sc *cellScratch, app trace.App, tr *trace.Trace, rng *stats.RNG) []*trace.Trace
}

// Partition splits tr into the sub-flows the scheme exposes, built
// in fresh memory the caller owns: it may keep them as long as it
// likes.
func (s Scheme) Partition(app trace.App, tr *trace.Trace, rng *stats.RNG) []*trace.Trace {
	return s.partition(new(cellScratch), app, tr, rng)
}

// cellScratch is the memory one grid cell works in: the reshape
// buffer and the split destination its flows are built in, and the
// windowed vectors they are attacked as. EvalCell takes one from
// cellScratchPool and returns it when the cell is done, so a warm
// worker evaluates a cell with little garbage.
type cellScratch struct {
	apply   reshape.Buffer
	split   trace.Trace
	windows attack.FlowWindows
}

var cellScratchPool = sync.Pool{New: func() any { return new(cellScratch) }}

// WireName returns the name a distributed backend ships instead of
// the partition, and whether the scheme has a partition at all. Every
// scheme with one comes from the registry (NamedScheme), whose names
// reconstruct the exact partition on any process.
func (s Scheme) WireName() (string, bool) {
	return s.Name, s.partition != nil
}

// StandardSchemes returns the five columns of Tables II/III:
// Original, FH, RA, RR, OR (I = 3, paper ranges). The schemes come
// from the registry, so they are wire-representable and a distributed
// backend can evaluate their cells on worker processes.
func StandardSchemes() []Scheme {
	names := []string{"Original", "FH", "RA", "RR", "OR"}
	out := make([]Scheme, len(names))
	for i, name := range names {
		out[i] = mustNamed(nil, name)
	}
	return out
}

// cellRNG derives the private random stream of one (scheme, app)
// cell as a pure function of the master seed, the scheme's name and
// the application index — the root of the engine's determinism
// guarantee, and what keeps two randomized schemes in one grid from
// replaying each other's draws.
func cellRNG(ds *Dataset, s Scheme, app trace.App) *stats.RNG {
	h := uint64(14695981039346656037) // FNV-1a over the scheme name
	for i := 0; i < len(s.Name); i++ {
		h ^= uint64(s.Name[i])
		h *= 1099511628211
	}
	return stats.NewRNG(ds.Cfg.Seed ^ 0xface ^ h).SplitAt(uint64(app))
}

// cellFlows materializes the observed sub-flows of one (scheme, app)
// cell: the partition under fresh per-cell randomness into sc, each
// sub-flow minted its own MAC address. The flows alias sc.
func cellFlows(sc *cellScratch, ds *Dataset, s Scheme, app trace.App) (map[mac.Address]*trace.Trace, map[mac.Address]trace.App) {
	r := cellRNG(ds, s, app)
	addrRNG := r.SplitAt(0)
	parts := s.partition(sc, app, ds.Test[app], r.SplitAt(1))
	flows := make(map[mac.Address]*trace.Trace, len(parts))
	truth := make(map[mac.Address]trace.App, len(parts))
	for _, p := range parts {
		addr := mac.RandomAddress(addrRNG)
		flows[addr] = p
		truth[addr] = app
	}
	return flows, truth
}

// EvalCell attacks one (scheme, app) cell with every classifier
// family, returning one confusion matrix per family (in
// ds.Classifiers order). Cells are the engine's shard unit: each is a
// pure function of (dataset, scheme, app) — which is also what makes
// them safe for a Backend to evaluate on any process and retry after
// a worker death. The cell's flows are windowed and feature-extracted
// once, then shared read-only across the families — extraction is
// classifier-independent, so this divides the windowing cost by the
// family count without moving any result bit.
func EvalCell(ds *Dataset, s Scheme, app trace.App) []*ml.Confusion {
	sc := cellScratchPool.Get().(*cellScratch)
	out := evalCell(sc, ds, s, app)
	cellScratchPool.Put(sc)
	return out
}

// evalCell is EvalCell working in an explicit scratch.
//
// The lifetime rule that makes the scratch reusable: the flows, and
// the windows cut from them, alias sc and are dead once
// AppendWindowFlows returns; from then on only the feature vectors
// survive, and they too live in sc until the last family has
// attacked them. The confusion matrices returned alias nothing, so
// when evalCell returns the caller may hand sc to the next cell.
func evalCell(sc *cellScratch, ds *Dataset, s Scheme, app trace.App) []*ml.Confusion {
	flows, truth := cellFlows(sc, ds, s, app)
	fw := &sc.windows
	fw.X, fw.Truth = fw.X[:0], fw.Truth[:0]
	attack.AppendWindowFlows(fw, flows, truth, ds.Cfg.W)
	out := make([]*ml.Confusion, len(ds.Classifiers))
	for i, clf := range ds.Classifiers {
		out[i] = clf.AttackWindowed(fw)
	}
	return out
}

// Result is a rendered experiment with machine-checkable metrics.
type Result struct {
	Name    string
	Text    string             // human-readable rendering
	Metrics map[string]float64 // stable keys for tests and cmd/experiments' `metric` lines
}

// Metric fetches a metric, panicking on unknown keys so tests fail
// loudly when a harness change breaks the contract.
func (r *Result) Metric(key string) float64 {
	v, ok := r.Metrics[key]
	if !ok {
		panic(fmt.Sprintf("experiments: result %q has no metric %q", r.Name, key))
	}
	return v
}

// SortedMetricKeys returns the metric names in stable order.
func (r *Result) SortedMetricKeys() []string {
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Runner executes one experiment against a prepared dataset.
type Runner struct {
	Name string
	// NeedsDataset reports whether the runner uses the trained
	// classifier (figures 1/2/3/4/5 do not).
	NeedsDataset bool
	Run          func(ds *Dataset, cfg Config) (*Result, error)
}

// Registry returns every experiment, in the paper's order.
func Registry() []Runner {
	return []Runner{
		{Name: "fig1", Run: runFigure1},
		{Name: "fig2", Run: runFigure2},
		{Name: "fig3", Run: runFigure3},
		{Name: "fig4", Run: runFigure4},
		{Name: "fig5", Run: runFigure5},
		{Name: "table1", Run: runTable1},
		{Name: "table2", NeedsDataset: true, Run: runTable2},
		{Name: "table3", NeedsDataset: true, Run: runTable3},
		{Name: "table4", NeedsDataset: true, Run: runTable4},
		{Name: "table5", NeedsDataset: true, Run: runTable5},
		{Name: "table6", NeedsDataset: true, Run: runTable6},
		{Name: "rssi", Run: runRSSI},
		{Name: "combined", NeedsDataset: true, Run: runCombined},
		{Name: "splitting", NeedsDataset: true, Run: runSplitting},
		{Name: "policy-ablation", NeedsDataset: true, Run: runPolicyAblation},
		{Name: "attacker-ablation", NeedsDataset: true, Run: runAttackerAblation},
		{Name: "seqlink", Run: runSeqLink},
	}
}

// RunnerByName resolves one experiment.
func RunnerByName(name string) (Runner, error) {
	for _, r := range Registry() {
		if r.Name == name {
			return r, nil
		}
	}
	return Runner{}, fmt.Errorf("experiments: unknown experiment %q", name)
}

// RunAll executes every experiment with shared datasets, writing each
// rendering to w as it completes. Returns all results keyed by name.
// It is the serial path: NewEngine(1) runs the identical shard code
// in registry order on one goroutine.
func RunAll(w io.Writer, quick bool) (map[string]*Result, error) {
	return serialEngine.RunAll(w, quick)
}
