package experiments

// The concurrent sharded experiment engine.
//
// An Engine runs the evaluation grid — every (application × strategy
// × window) cell of the paper's tables — over a bounded worker pool
// instead of one goroutine. Three design rules make the parallel run
// bit-identical to the serial one:
//
//  1. Shards are pure. Each (scheme, app) cell derives its private
//     random stream with stats.RNG.SplitAt from the master seed, so
//     no cell's randomness depends on which worker ran it or when
//     (see cellRNG/evalCell in harness.go).
//  2. Shared inputs are frozen. Test traces and trained classifiers
//     are read-only after dataset construction; every scheduler with
//     state (RR, RA, Adaptive) is instantiated fresh per cell.
//  3. Merges are ordered. Shard outputs land in index-addressed
//     slots and are folded in the serial iteration order; the
//     streaming collector of RunAll emits renderings strictly in
//     registry order even when later experiments finish first.
//
// The window axis of the grid is covered by the per-window dataset
// cache: experiments needing W = 60 s (Tables III/IV) trigger one
// shared build instead of two, and run concurrently with the W = 5 s
// experiments.
//
// A RunAll does each piece of work once: one training set per
// dataset, windowed and extracted once and shared by every family,
// Table VI and the attacker ablation; and one evaluation per cell per
// run, because the run's cell memo hands a (dataset, scheme) grid one
// runner evaluated to every other runner asking for it.

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"trafficreshape/internal/appgen"
	"trafficreshape/internal/attack"
	"trafficreshape/internal/ml"
	"trafficreshape/internal/par"
	"trafficreshape/internal/trace"
)

// Engine evaluates experiments over a worker pool. One permit pool
// bounds every level of fan-out — experiments, grid cells, trace
// generation and family training nested inside them — so the total
// concurrency never exceeds the configured worker count even though
// runners fan out again internally.
//
// Grid evaluation goes through a pluggable Backend: the default is
// the in-process pool (NewLocalBackend), and WithBackend swaps in a
// distributed one (internal/dist) without touching any runner.
type Engine struct {
	workers int
	pool    *par.Pool
	backend Backend
}

// serialEngine backs the package-level serial entry points
// (BuildDataset, EvalScheme, RunAll).
var serialEngine = NewEngine(1)

// NewEngine returns an engine running at most workers shards
// concurrently; workers <= 0 selects runtime.NumCPU().
func NewEngine(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	pool := par.NewPool(workers)
	return &Engine{workers: workers, pool: pool, backend: NewLocalBackend(pool)}
}

// Pool exposes the engine's permit pool so an external backend's
// in-process work (e.g. internal/dist's local fallback) can draw from
// the same permits and keep the one-pool concurrency bound intact.
func (e *Engine) Pool() *par.Pool { return e.pool }

// WithBackend returns a copy of the engine whose grid evaluations run
// on b (nil keeps the current backend). Dataset builds and experiment
// fan-out stay on the engine's own pool — only the (scheme × app)
// cells move, which is where the paper's tables spend their time.
func (e *Engine) WithBackend(b Backend) *Engine {
	out := *e
	if b != nil {
		out.backend = b
	}
	return &out
}

// BuildDataset generates training traffic, windows and extracts it
// once into the dataset's training set, trains one adversary per
// classifier family on that set, and generates unseen test traffic.
// Applications are generated, and families trained, concurrently on
// the pool, one goroutine each; no trainer fans out internally, so a
// pool larger than the shard count leaves permits idle during a
// build. Every composition is bit-identical to the serial build. The
// dataset carries the engine, so every later evaluation against it is
// sharded too. It carries no cell memo: every EvalSchemes call on it
// evaluates its whole grid.
func (e *Engine) BuildDataset(cfg Config) (*Dataset, error) {
	return e.BuildDatasetFrom(cfg, nil)
}

// BuildDatasetFrom is BuildDataset with externally supplied traffic:
// applications present in set.Train / set.Test use the captured trace,
// the rest are generated synthetically with the exact per-application
// seeds a full synthetic build would use — so a partial set mixes
// captured and synthetic cells in one grid, and an empty or nil set
// reproduces BuildDataset bit for bit. The resulting dataset carries
// the set's content-digest ref, which is what lets a distributed
// backend address its cells on processes holding the same traces.
func (e *Engine) BuildDatasetFrom(cfg Config, set *TraceSet) (*Dataset, error) {
	var capturedTrain, capturedTest map[trace.App]*trace.Trace
	if set != nil {
		capturedTrain, capturedTest = set.Train, set.Test
	}
	train, err := attack.PrepareTraining(e.resolveTraffic(capturedTrain, cfg.TrainDuration, cfg.Seed), cfg.W)
	if err != nil {
		return nil, fmt.Errorf("experiments: training adversaries: %w", err)
	}
	clfs, err := attack.TrainAllParallel(train, attack.TrainOptions{Seed: cfg.Seed ^ 0xbeef}, e.pool)
	if err != nil {
		return nil, fmt.Errorf("experiments: training adversaries: %w", err)
	}
	test := e.resolveTraffic(capturedTest, cfg.TestDuration, cfg.Seed^0x5eed)
	ds := &Dataset{Cfg: cfg, Classifiers: clfs, Test: test, train: train, cache: newDatasetCache(), morphs: newMorphModelCache()}
	if !set.Empty() {
		ds.src = set
		ds.srcRef = set.Ref()
	}
	if e != serialEngine {
		ds.eng = e
	}
	return ds, nil
}

// SyntheticTraceSet generates cfg's full synthetic traffic as a
// TraceSet: the bridge between the generator and the captured-trace
// tooling. Dumped to disk and reloaded as captured traces, the set
// rebuilds a dataset bit-identical to BuildDataset(cfg) — which is
// how CI pins the captured path against the synthetic one.
func (e *Engine) SyntheticTraceSet(cfg Config) *TraceSet {
	return &TraceSet{
		Train: e.resolveTraffic(nil, cfg.TrainDuration, cfg.Seed),
		Test:  e.resolveTraffic(nil, cfg.TestDuration, cfg.Seed^0x5eed),
	}
}

// RunFrom executes one experiment by name like Run, building the
// primary dataset from the captured set (nil = fully synthetic).
func (e *Engine) RunFrom(name string, cfg Config, set *TraceSet) (*Result, error) {
	runner, err := RunnerByName(name)
	if err != nil {
		return nil, err
	}
	var ds *Dataset
	if runner.NeedsDataset {
		ds, err = e.BuildDatasetFrom(cfg, set)
		if err != nil {
			return nil, err
		}
	}
	return runner.Run(ds, cfg)
}

// resolveTraffic fills the per-application traffic map: captured
// slots pass through untouched, the rest are generated on the pool
// with GenerateAll's per-application seed derivation.
func (e *Engine) resolveTraffic(captured map[trace.App]*trace.Trace, duration time.Duration, seed uint64) map[trace.App]*trace.Trace {
	traces := make([]*trace.Trace, trace.NumApps)
	e.pool.Each(trace.NumApps, func(i int) {
		app := trace.Apps[i]
		if tr := captured[app]; tr != nil {
			traces[i] = tr
			return
		}
		traces[i] = appgen.Generate(app, duration, appgen.AppSeed(seed, app))
	})
	out := make(map[trace.App]*trace.Trace, trace.NumApps)
	for i, app := range trace.Apps {
		out[app] = traces[i]
	}
	return out
}

// EvalScheme attacks every application under one scheme, sharding the
// per-application cells.
func (e *Engine) EvalScheme(ds *Dataset, s Scheme) *ml.Confusion {
	return e.EvalSchemes(ds, []Scheme{s})[0]
}

// EvalSchemes hands the full (scheme × application) grid to the
// engine's backend — the in-process pool by default, worker processes
// under a distributed backend — and merges per scheme: the per-family
// confusion matrices are summed over applications in application
// order, then the strongest family (highest mean accuracy, first wins
// ties) is reported — exactly the serial reduction, whichever process
// evaluated each cell.
//
// Under RunAll the dataset carries the run's cell memo, and a registry
// scheme another runner has already claimed on the same dataset is
// not evaluated again: this call waits for that runner's cells instead.
func (e *Engine) EvalSchemes(ds *Dataset, schemes []Scheme) []*ml.Confusion {
	apps := trace.Apps
	cells := ds.cells.evalGrid(e.backend, ds, schemes)
	out := make([]*ml.Confusion, len(schemes))
	for si := range schemes {
		var best *ml.Confusion
		for fi := range ds.Classifiers {
			conf := &ml.Confusion{}
			for ai := range apps {
				conf.Merge(cells[si*len(apps)+ai][fi])
			}
			if best == nil || conf.MeanAccuracy() > best.MeanAccuracy() {
				best = conf
			}
		}
		out[si] = best
	}
	return out
}

// Run executes one experiment by name, building the primary dataset
// on the pool when the runner needs it.
func (e *Engine) Run(name string, cfg Config) (*Result, error) {
	return e.RunFrom(name, cfg, nil)
}

// RunAll executes every experiment: runners are sharded across the
// pool (each runner additionally shards its own grid), derived
// datasets are deduplicated per window, grid cells are evaluated once
// per run (see cellMemo), and the streaming collector writes each
// rendering to w in registry order the moment it and all its
// predecessors are done. The output bytes are identical to the serial
// engine's.
func (e *Engine) RunAll(w io.Writer, quick bool) (map[string]*Result, error) {
	mkCfg := DefaultConfig
	if quick {
		mkCfg = QuickConfig
	}
	cfg5 := mkCfg(5 * time.Second)
	ds, err := e.BuildDataset(cfg5)
	if err != nil {
		return nil, err
	}
	// The memo lives as long as this run: the dataset and the
	// datasets datasetForW derives from it are this run's alone.
	ds.cells = newCellMemo()
	reg := Registry()
	results := make([]*Result, len(reg))
	errs := make([]error, len(reg))
	done := make([]chan struct{}, len(reg))
	for i := range done {
		done[i] = make(chan struct{})
	}
	var failed atomic.Bool
	go e.pool.Each(len(reg), func(i int) {
		defer close(done[i])
		if failed.Load() {
			errs[i] = errSkipped
			return
		}
		res, err := reg[i].Run(ds, cfg5)
		if err != nil {
			failed.Store(true)
			errs[i] = fmt.Errorf("experiments: %s: %w", reg[i].Name, err)
			return
		}
		results[i] = res
	})

	// Ordered streaming collector: emit in registry order as soon as
	// each slot (and every slot before it) completes. On failure the
	// emitted stream is a clean prefix of the serial output — once
	// any slot errs or is skipped, later renderings are withheld so
	// the writer never sees a gapped sequence the serial engine could
	// not produce.
	out := make(map[string]*Result, len(reg))
	var firstErr error
	emit := true
	for i := range reg {
		<-done[i]
		if errs[i] != nil {
			emit = false
			if firstErr == nil && errs[i] != errSkipped {
				firstErr = errs[i]
			}
			continue
		}
		out[reg[i].Name] = results[i]
		if emit && w != nil {
			fmt.Fprintf(w, "==== %s ====\n%s\n", results[i].Name, results[i].Text)
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// errSkipped marks runners cancelled after an earlier failure.
var errSkipped = fmt.Errorf("experiments: skipped after earlier failure")

// --- dataset cache ----------------------------------------------------------

// datasetCache builds each dataset once per key and shares the build
// among concurrent callers. It serves two owners. A Dataset's cache
// deduplicates derived datasets by their full scaled Config plus the
// digest key of their source traces, so concurrent experiments needing
// the same derivation (Tables III and IV both scale to W = 60 s under
// RunAll) share one build — while callers passing a *different*
// config at the same window, or the same config over different
// captured traffic, still get their own dataset, exactly as serial
// rebuilding would. A CellEvaluator's cache holds the datasets a
// worker rebuilds from wire-addressed cells.
type datasetCache struct {
	mu      sync.Mutex
	entries map[datasetCacheKey]*datasetEntry
	// order is the FIFO eviction queue. Datasets are the heavyweight
	// entries (trained classifiers, test traces, morph tables);
	// without a bound, a redial worker's memory grows for its whole
	// lifetime. Eviction is safe because datasets are pure: an evicted
	// key rebuilds on next use, and goroutines holding the old entry
	// keep a valid immutable dataset.
	order []datasetCacheKey
}

// maxCachedDatasets bounds every dataset cache. A full registry run
// touches ~3 distinct configs; this keeps several grids' worth while
// capping a long-lived worker's footprint.
const maxCachedDatasets = 16

// datasetCacheKey addresses one dataset build: the Config plus
// TraceSetRef.Key() of the captured source ("" = synthetic).
type datasetCacheKey struct {
	cfg Config
	src string
}

type datasetEntry struct {
	once sync.Once
	ds   *Dataset
	err  error
}

func newDatasetCache() *datasetCache {
	return &datasetCache{entries: make(map[datasetCacheKey]*datasetEntry)}
}

// get builds (once) and returns the dataset for the key, evicting the
// oldest key beyond maxCachedDatasets.
func (c *datasetCache) get(key datasetCacheKey, build func() (*Dataset, error)) (*Dataset, error) {
	c.mu.Lock()
	entry, ok := c.entries[key]
	if !ok {
		entry = &datasetEntry{}
		c.entries[key] = entry
		c.order = append(c.order, key)
		if len(c.order) > maxCachedDatasets {
			delete(c.entries, c.order[0])
			c.order = c.order[1:]
		}
	}
	c.mu.Unlock()
	entry.once.Do(func() { entry.ds, entry.err = build() })
	return entry.ds, entry.err
}

// --- cell memo --------------------------------------------------------------

// cellMemo shares the grid results of one dataset between the runners
// of one RunAll: Tables II–IV and the §V-C runners attack Original or
// OR on the same datasets, so of the run's 182 grid cells only 140
// are distinct. Entries are keyed by wire name, because only
// a registry scheme's name determines its partition; ad-hoc schemes
// are never memoised. Each entry holds one scheme's cells for every
// application.
//
// The memo sits above the Backend, so a distributed backend is never
// handed a repeated cell. It is scoped to one run on purpose: a
// dataset from BuildDataset carries none, so a caller that evaluates
// the same grid again (a benchmark, say) measures evaluation every
// time.
type cellMemo struct {
	mu      sync.Mutex
	entries map[string]*memoEntry
}

// memoEntry is one scheme's cells: claimed by the first caller, which
// fills cells and closes done; later callers wait on done.
type memoEntry struct {
	done  chan struct{}
	cells [][]*ml.Confusion
}

func newCellMemo() *cellMemo {
	return &cellMemo{entries: make(map[string]*memoEntry)}
}

// evalGrid is Backend.EvalGrid through the memo (a nil memo calls b
// directly). It claims every scheme nobody has claimed yet, evaluates
// its claims in one EvalGrid call, and only then waits on the entries
// other callers claimed. A caller never waits while holding an
// unfinished claim, so two runners waiting on each other's schemes
// cannot deadlock: each finishes its own claims first, which no
// backend makes wait on another caller (par.Pool.Each always runs
// shards on the calling goroutine, and the fleet falls back to local
// evaluation).
func (m *cellMemo) evalGrid(b Backend, ds *Dataset, schemes []Scheme) [][]*ml.Confusion {
	if m == nil {
		return b.EvalGrid(ds, schemes)
	}
	n := len(trace.Apps)
	entries := make([]*memoEntry, len(schemes))
	var mine []Scheme
	var mineIdx []int
	var claimed []*memoEntry // parallel to mine; nil for unmemoised schemes
	m.mu.Lock()
	for i, s := range schemes {
		name, ok := s.WireName()
		if !ok {
			mine, mineIdx, claimed = append(mine, s), append(mineIdx, i), append(claimed, nil)
			continue
		}
		if e, seen := m.entries[name]; seen {
			entries[i] = e
			continue
		}
		e := &memoEntry{done: make(chan struct{})}
		m.entries[name] = e
		mine, mineIdx, claimed = append(mine, s), append(mineIdx, i), append(claimed, e)
	}
	m.mu.Unlock()

	cells := make([][]*ml.Confusion, len(schemes)*n)
	if len(mine) > 0 {
		got := b.EvalGrid(ds, mine)
		for k, i := range mineIdx {
			row := got[k*n : (k+1)*n]
			copy(cells[i*n:], row)
			if e := claimed[k]; e != nil {
				e.cells = row
				close(e.done)
			}
		}
	}
	for i, e := range entries {
		if e != nil {
			<-e.done
			copy(cells[i*n:], e.cells)
		}
	}
	return cells
}
