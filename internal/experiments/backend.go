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
// BuildDataset(ds.Cfg), which is how every Dataset in this package is
// made; they reconstruct it from the Config on the far side.
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
// coordinator: it rebuilds (and caches) the dataset for each distinct
// (Config, trace ref) — bit-identical to the coordinator's, because
// datasets are pure functions of the Config plus the content-addressed
// traces the ref names — then reconstructs the named scheme and runs
// the ordinary cell evaluation. Captured traces are resolved against
// the evaluator's TraceStore, which the worker loop fills from the
// coordinator's preload frames; the store and dataset cache survive
// reconnects when the evaluator is reused across Serve calls, so a
// rejoining worker neither re-receives traces nor rebuilds datasets.
type CellEvaluator struct {
	eng   *Engine
	store *TraceStore
	// datasets is bounded at maxCachedDatasets: a long-lived worker
	// state sees a new (Config, ref) key for every window scaling of
	// every grid it serves.
	datasets *datasetCache
}

// maxStoredTraces bounds the evaluator's trace store the way
// maxCachedDatasets bounds its datasets: generous for any one run
// (a full captured set is 2 × NumApps traces), finite over a redial
// worker's lifetime. An evicted trace degrades the affected cells to
// coordinator-side local fallback; it never changes a result.
const maxStoredTraces = 64

// NewCellEvaluator returns an evaluator building datasets on eng
// (nil selects the serial engine), with an empty trace store. The
// dataset cache holds at most 16 entries and the store 64 traces.
func NewCellEvaluator(eng *Engine) *CellEvaluator {
	if eng == nil {
		eng = serialEngine
	}
	return &CellEvaluator{
		eng:      eng,
		store:    NewBoundedTraceStore(maxStoredTraces),
		datasets: newDatasetCache(),
	}
}

// Store exposes the evaluator's trace store so transport layers can
// preload captured traces into it.
func (ev *CellEvaluator) Store() *TraceStore { return ev.store }

// dataset builds the dataset for (cfg, ref) once and caches it;
// concurrent requests for the same key share one build. The ref is
// resolved against the store before touching the cache: a miss (the
// preload has not delivered a digest yet) is a retryable error that
// must not poison the once-entry — content addressing guarantees any
// later successful resolution of the same ref yields identical
// traces, so resolving per-call cannot change the build.
func (ev *CellEvaluator) dataset(cfg Config, ref TraceSetRef) (*Dataset, error) {
	set, err := ev.store.Resolve(ref)
	if err != nil {
		return nil, err
	}
	return ev.datasets.get(datasetCacheKey{cfg: cfg, src: ref.Key()},
		func() (*Dataset, error) { return ev.eng.BuildDatasetFrom(cfg, set) })
}

// Eval evaluates one wire-addressed cell, returning the per-family
// confusion matrices in classifier order. A non-empty ref names the
// captured traces the dataset is built from; every digest must
// already be in the evaluator's store.
func (ev *CellEvaluator) Eval(cfg Config, ref TraceSetRef, scheme string, app trace.App) ([]*ml.Confusion, error) {
	ds, err := ev.dataset(cfg, ref)
	if err != nil {
		return nil, err
	}
	s, err := NamedScheme(ds, scheme)
	if err != nil {
		return nil, err
	}
	return EvalCell(ds, s, app), nil
}
