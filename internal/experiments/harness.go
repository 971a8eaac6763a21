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

// Dataset bundles the trained adversaries and held-out test traffic.
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
	// one RunAll (see cellMemo); nil evaluates every cell on every
	// call.
	cells *cellMemo
	// eng, when set, shards grid evaluations over a worker pool; nil
	// keeps every path serial. Either way each (scheme, app) cell
	// draws from its own SplitAt stream, so the results are
	// bit-identical.
	eng *Engine
	// cache deduplicates derived datasets at other eavesdropping
	// windows (Tables III/IV both need W = 60 s) across concurrently
	// running experiments.
	cache *datasetCache
	// morphs caches the immutable per-target morphing tables the
	// OR+morph scheme derives from the test traces: 35 grid cells
	// share 5 table builds instead of sorting the target trace per
	// cell. Shared (not copied) by the engine-rebound copies
	// datasetForW hands out, like the test traces.
	morphs *morphModelCache
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

// morphModelCache lazily builds one defense.MorphModel per morph
// target. Models are immutable and the build is a pure function of
// the test trace, so concurrent cells can share entries freely.
type morphModelCache struct {
	mu     sync.Mutex
	models map[trace.App]*defense.MorphModel
	errs   map[trace.App]error
}

func newMorphModelCache() *morphModelCache {
	return &morphModelCache{
		models: make(map[trace.App]*defense.MorphModel),
		errs:   make(map[trace.App]error),
	}
}

// MorphModel returns the cached morphing tables toward target's test
// trace, building them on first use. Datasets constructed without the
// cache (zero-value literals in tests) fall back to an uncached build.
func (ds *Dataset) MorphModel(target trace.App) (*defense.MorphModel, error) {
	c := ds.morphs
	if c == nil {
		return defense.NewMorphModel(ds.Test[target])
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if m, ok := c.models[target]; ok {
		return m, nil
	}
	if err, ok := c.errs[target]; ok {
		return nil, err
	}
	m, err := defense.NewMorphModel(ds.Test[target])
	if err != nil {
		c.errs[target] = err
		return nil, err
	}
	c.models[target] = m
	return m, nil
}

// engine returns the evaluation engine, defaulting to the serial one.
func (ds *Dataset) engine() *Engine {
	if ds == nil || ds.eng == nil {
		return serialEngine
	}
	return ds.eng
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
	// wire marks schemes obtained from the registry (NamedScheme):
	// only those may be evaluated on another process by name, because
	// only the registry guarantees the name reconstructs the exact
	// partition. Ad-hoc schemes keep wire == false and always run
	// in-process.
	wire bool
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

// WireName returns the name a distributed backend may ship instead of
// the partition, and whether the scheme is wire-representable at all
// (i.e. came from the scheme registry).
func (s Scheme) WireName() (string, bool) {
	if !s.wire {
		return "", false
	}
	return s.Name, true
}

// OriginalScheme observes the flow unmodified under one address.
func OriginalScheme() Scheme {
	return Scheme{
		Name: "Original",
		partition: func(_ *cellScratch, _ trace.App, tr *trace.Trace, _ *stats.RNG) []*trace.Trace {
			return []*trace.Trace{tr}
		},
	}
}

// SchedulerScheme partitions with a fresh per-cell scheduler
// instance, so stateful schedulers (RR's counter, RA's stream,
// Adaptive's quantiles) never leak state across shards.
func SchedulerScheme(name string, mk func(rng *stats.RNG) reshape.Scheduler) Scheme {
	return Scheme{
		Name: name,
		partition: func(sc *cellScratch, _ trace.App, tr *trace.Trace, rng *stats.RNG) []*trace.Trace {
			return sc.apply.Apply(mk(rng), tr)
		},
	}
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

// EvalScheme attacks every application under one scheme with every
// classifier family and returns the strongest attacker's confusion
// matrix (highest mean accuracy) — the paper's reporting rule. When
// the dataset carries an engine, the (app) cells run sharded.
func EvalScheme(ds *Dataset, s Scheme) *ml.Confusion {
	return ds.engine().EvalScheme(ds, s)
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
