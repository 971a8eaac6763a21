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
// Table VI and the attacker ablation; and one evaluation per distinct
// cell per run, because the run's cell memo hands a (dataset, scheme)
// grid one runner evaluated to every other runner asking for it, and
// scheme aliases (see schemeAliases) share their canonical scheme's
// name.

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"trafficreshape/internal/appgen"
	"trafficreshape/internal/attack"
	"trafficreshape/internal/defense"
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
// (BuildDataset, RunAll).
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
// on b. Dataset builds and experiment fan-out stay on the engine's own
// pool — only the (scheme × app) cells move, which is where the
// paper's tables spend their time.
func (e *Engine) WithBackend(b Backend) *Engine {
	out := *e
	out.backend = b
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
// sharded too. It carries no run-scoped cell memo: each EvalSchemes
// call on it evaluates every distinct scheme of its grid once, however
// often the call lists it, and a second call evaluates them again.
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
	ds := &Dataset{Cfg: cfg, Classifiers: clfs, Test: test, train: train, eng: e, cache: newDatasetCache()}
	for _, app := range trace.Apps {
		ds.morphs[app] = sync.OnceValues(func() (*defense.MorphModel, error) {
			return defense.NewMorphModel(test[app])
		})
	}
	if !set.Empty() {
		ds.src = set
		ds.srcRef = set.Ref()
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

// EvalSchemes hands the full (scheme × application) grid to the
// engine's backend — the in-process pool by default, worker processes
// under a distributed backend — and merges per scheme: the per-family
// confusion matrices are summed over applications in application
// order, then the strongest family (highest mean accuracy, first wins
// ties) is reported — exactly the serial reduction, whichever process
// evaluated each cell.
//
// A scheme is evaluated once per call however often it is listed
// (aliases resolve to one scheme name, see schemeAliases): the call
// goes through a cell memo scoped to it. Under RunAll the dataset
// carries the run's memo instead, and a scheme another runner has
// already claimed on the same dataset is not evaluated again: this
// call waits for that runner's cells.
func (e *Engine) EvalSchemes(ds *Dataset, schemes []Scheme) []*ml.Confusion {
	apps := trace.Apps
	memo := ds.cells
	if memo == nil {
		memo = newCellMemo()
	}
	cells := memo.evalGrid(e.backend, ds, schemes)
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
	// entries is bounded at maxCachedDatasets. Datasets are the
	// heavyweight entries (trained classifiers, test traces, morph
	// tables); without a bound, a redial worker's memory grows for its
	// whole lifetime. Goroutines holding an evicted entry keep a valid
	// immutable dataset.
	entries *fifoMap[datasetCacheKey, *datasetEntry]
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
	return &datasetCache{entries: newFIFOMap[datasetCacheKey, *datasetEntry](maxCachedDatasets)}
}

// get builds (once) and returns the dataset for the key.
func (c *datasetCache) get(key datasetCacheKey, build func() (*Dataset, error)) (*Dataset, error) {
	entry, ok := c.entries.get(key)
	if !ok {
		entry = c.entries.put(key, &datasetEntry{})
	}
	entry.once.Do(func() { entry.ds, entry.err = build() })
	return entry.ds, entry.err
}

// --- cell memo --------------------------------------------------------------

// cellMemo shares the grid results of one dataset between the callers
// that ask for them. Entries are keyed by scheme name, because every
// scheme comes from the registry, where the name determines the
// partition and aliases resolve to their canonical name. Each entry
// holds one scheme's cells for every application.
//
// A memo has one of two scopes. RunAll gives its dataset a memo for
// the run: Tables II–V and the §III-C2/§V-C runners attack Original or
// OR (under three names) on the same datasets, so of the run's 182
// grid cells only 126 are distinct. Every other EvalSchemes call makes
// a memo for itself, so a grid listing one scheme twice evaluates it
// once, while a caller that evaluates the same grid again (a
// benchmark, say) measures evaluation every time.
//
// The memo sits above the Backend, so a distributed backend is never
// handed a repeated cell.
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

// evalGrid is Backend.EvalGrid through the memo. It claims every
// scheme nobody has claimed yet, evaluates its claims in one EvalGrid
// call, and only then waits on the entries other callers claimed. A
// caller never waits while holding an unfinished claim, so two
// runners waiting on each other's schemes cannot deadlock: each
// finishes its own claims first, which no backend makes wait on
// another caller (par.Pool.Each always runs shards on the calling
// goroutine, and the fleet falls back to local evaluation).
func (m *cellMemo) evalGrid(b Backend, ds *Dataset, schemes []Scheme) [][]*ml.Confusion {
	n := len(trace.Apps)
	entries := make([]*memoEntry, len(schemes))
	var mine []Scheme
	var claimed []*memoEntry // parallel to mine
	m.mu.Lock()
	for i, s := range schemes {
		e, seen := m.entries[s.Name]
		if !seen {
			e = &memoEntry{done: make(chan struct{})}
			m.entries[s.Name] = e
			mine, claimed = append(mine, s), append(claimed, e)
		}
		entries[i] = e
	}
	m.mu.Unlock()

	if len(mine) > 0 {
		got := b.EvalGrid(ds, mine)
		for k, e := range claimed {
			e.cells = got[k*n : (k+1)*n]
			close(e.done)
		}
	}
	cells := make([][]*ml.Confusion, len(schemes)*n)
	for i, e := range entries {
		<-e.done
		copy(cells[i*n:], e.cells)
	}
	return cells
}
