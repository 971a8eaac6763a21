package experiments

// Backend is the execution substrate behind Engine.EvalSchemes: it
// evaluates the (scheme × application) grid and hands the raw
// per-cell, per-family confusion matrices back to the engine, which
// owns the (ordered, deterministic) merge. Extracting this seam is
// what lets the same engine run its grid in-process on a par.Pool —
// the degenerate single-process backend — or across worker processes
// via internal/dist, without the runners noticing.

import (
	"trafficreshape/internal/ml"
	"trafficreshape/internal/par"
	"trafficreshape/internal/trace"
)

// Backend evaluates every (scheme, app) cell of a grid.
//
// The contract mirrors the serial loop exactly: the returned slice has
// len(schemes) × len(trace.Apps) entries in row-major (scheme, app)
// order, and entry i holds EvalCell's per-family confusions for that
// cell. Cells are pure functions of (ds.Cfg, scheme, app), so
// implementations may evaluate them anywhere, in any order, and retry
// them freely — but must return results equal to EvalCell's. Remote
// implementations additionally assume ds was built by
// BuildDatasetFrom(ds.Cfg, ds.Source()) and every scheme by
// NamedScheme, which is how every Dataset and Scheme in this package
// is made; they reconstruct both from the cell's wire address on the
// far side.
//
// EvalGrid must not fail: a backend whose transport can die (worker
// processes, sockets) falls back to evaluating the affected cells
// locally, which is always possible because cells are pure.
type Backend interface {
	EvalGrid(ds *Dataset, schemes []Scheme) [][]*ml.Confusion
}

// localBackend runs the grid on an in-process worker pool — the
// 1-process degenerate case of the Backend interface, and the engine's
// default. Sharing the engine's pool keeps the nested-fan-out bound:
// grid cells never add concurrency beyond the configured worker count.
type localBackend struct {
	pool *par.Pool
}

// NewLocalBackend returns the in-process backend over pool. A nil pool
// evaluates serially.
func NewLocalBackend(pool *par.Pool) Backend {
	return &localBackend{pool: pool}
}

// EvalGrid implements Backend.
func (b *localBackend) EvalGrid(ds *Dataset, schemes []Scheme) [][]*ml.Confusion {
	apps := trace.Apps
	cells := make([][]*ml.Confusion, len(schemes)*len(apps))
	b.pool.Each(len(cells), func(i int) {
		cells[i] = EvalCell(ds, schemes[i/len(apps)], apps[i%len(apps)])
	})
	return cells
}

// --- worker-side cell evaluation --------------------------------------------

// CellEvaluator evaluates wire-addressed cells on behalf of a remote
// coordinator, and is the whole durable state of a worker. It rebuilds
// (and caches) the dataset for each distinct (Config, trace ref) —
// bit-identical to the coordinator's, because datasets are pure
// functions of the Config plus the content-addressed traces the ref
// names — then reconstructs the named scheme and runs the ordinary
// cell evaluation, caching the result under the full cell address.
// Captured traces are resolved against the evaluator's TraceStore,
// which the worker loop fills from the coordinator's preload frames.
// Reused across connections, the evaluator makes a rejoining worker
// cheap: traces are not re-shipped (its store backs the trace-have
// announcement), datasets are not rebuilt, and answered cells are not
// re-evaluated.
type CellEvaluator struct {
	eng *Engine
	// store, datasets and results are bounded FIFOs (64 traces, 16
	// datasets, 4096 results by default): a long-lived worker sees a
	// new key for every window scaling of every grid it serves. An
	// evicted trace degrades the affected cells to coordinator-side
	// local fallback; no eviction ever changes a result.
	store    *TraceStore
	datasets *datasetCache
	results  *fifoMap[cellKey, []ml.Confusion]
}

// cellKey is the full pure-function address of one cell result.
type cellKey struct {
	cfg    Config
	traces string // TraceSetRef.Key(), "" = synthetic
	scheme string
	app    trace.App
}

const (
	maxStoredTraces = 64
	// defaultCachedResults holds several full registry runs' worth of
	// cells (one is 140) at a few KB per entry.
	defaultCachedResults = 4096
)

// NewCellEvaluator returns an evaluator building datasets on eng (nil
// selects the serial engine), with an empty trace store and a result
// cache of at most results entries (<= 0 selects 4096).
func NewCellEvaluator(eng *Engine, results int) *CellEvaluator {
	if eng == nil {
		eng = serialEngine
	}
	if results <= 0 {
		results = defaultCachedResults
	}
	return &CellEvaluator{
		eng:      eng,
		store:    newTraceStore(maxStoredTraces),
		datasets: newDatasetCache(),
		results:  newFIFOMap[cellKey, []ml.Confusion](results),
	}
}

// Store exposes the evaluator's trace store so transport layers can
// preload captured traces into it.
func (ev *CellEvaluator) Store() *TraceStore { return ev.store }

// dataset builds the dataset for (cfg, ref) once and caches it under
// (cfg, refKey); concurrent requests for the same key share one build.
// The ref is resolved against the store before touching the cache: a
// miss (the preload has not delivered a digest yet) is a retryable
// error that must not poison the once-entry — content addressing
// guarantees any later successful resolution of the same ref yields
// identical traces, so resolving per-call cannot change the build.
func (ev *CellEvaluator) dataset(cfg Config, ref TraceSetRef, refKey string) (*Dataset, error) {
	set, err := ev.store.Resolve(ref)
	if err != nil {
		return nil, err
	}
	return ev.datasets.get(datasetCacheKey{cfg: cfg, src: refKey},
		func() (*Dataset, error) { return ev.eng.BuildDatasetFrom(cfg, set) })
}

// Eval evaluates one wire-addressed cell, returning the per-family
// confusion matrices in classifier order; cached reports that they
// came from the result cache instead of an evaluation. A non-empty
// ref names the captured traces the dataset is built from; every
// digest must already be in the evaluator's store.
func (ev *CellEvaluator) Eval(cfg Config, ref TraceSetRef, scheme string, app trace.App) (families []ml.Confusion, cached bool, err error) {
	key := cellKey{cfg: cfg, traces: ref.Key(), scheme: scheme, app: app}
	if families, ok := ev.results.get(key); ok {
		return families, true, nil
	}
	ds, err := ev.dataset(cfg, ref, key.traces)
	if err != nil {
		return nil, false, err
	}
	s, err := NamedScheme(ds, scheme)
	if err != nil {
		return nil, false, err
	}
	confs := EvalCell(ds, s, app)
	families = make([]ml.Confusion, len(confs))
	for i, c := range confs {
		families[i] = *c
	}
	// A duplicate evaluation of a pure cell has the same bytes; the
	// first stored copy is returned either way.
	return ev.results.put(key, families), false, nil
}
