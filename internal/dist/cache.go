package dist

// Worker-side result cache. Cells are pure, so their results are
// cacheable forever under the full cell address — (Config, trace ref,
// scheme, app) — and a worker that rejoins after a death, or answers
// late after a timeout reclaim, can serve repeated requests from the
// cache instead of re-evaluating. The cache lives in a WorkerState
// that survives individual Serve calls (connections), alongside a
// CellEvaluator holding the dataset cache and trace store — the three
// together are what make a restarted worker cheap: traces are not
// re-shipped (trace-have), datasets are not rebuilt (dataset cache),
// answered cells are not re-evaluated (result cache). Only the result
// cache is sized here (CacheOptions.Results); the dataset cache and
// trace store keep fixed bounds of 16 and 64 entries.

import (
	"container/list"
	"sync"

	"trafficreshape/internal/experiments"
	"trafficreshape/internal/ml"
	"trafficreshape/internal/trace"
)

// DefaultResultCacheSize bounds the result cache when the caller does
// not: a full quick-config registry run is a few hundred cells, so
// this holds several grids with room to spare at a few KB per entry.
const DefaultResultCacheSize = 4096

// resultKey is the full pure-function address of one cell result.
type resultKey struct {
	cfg    experiments.Config
	traces string // TraceSetRef.Key(), "" = synthetic
	scheme string
	app    trace.App
}

// CacheStats counts result-cache traffic. Hits can only follow an
// earlier miss for the same key (an entry must have been evaluated
// and stored before it can be served), which the cache property tests
// pin.
type CacheStats struct {
	// Hits counts requests answered from the cache.
	Hits int
	// Misses counts requests that had to evaluate (every stored entry
	// starts as a miss).
	Misses int
	// Evictions counts entries dropped by the LRU bound.
	Evictions int
}

// resultCache is a keyed LRU of evaluated cell results.
type resultCache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	index map[resultKey]*list.Element
	stats CacheStats
}

type resultEntry struct {
	key      resultKey
	families []ml.Confusion
}

func newResultCache(max int) *resultCache {
	if max <= 0 {
		max = DefaultResultCacheSize
	}
	return &resultCache{max: max, ll: list.New(), index: make(map[resultKey]*list.Element)}
}

// get returns the cached families for key, counting the hit or miss.
func (c *resultCache) get(key resultKey) ([]ml.Confusion, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[key]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.stats.Hits++
	return el.Value.(*resultEntry).families, true
}

// put stores families under key, evicting the least recently used
// entry beyond the bound. Results are immutable once stored.
func (c *resultCache) put(key resultKey, families []ml.Confusion) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.index[key]; ok {
		c.ll.MoveToFront(el) // duplicate evaluation of a pure cell: same bytes
		return
	}
	c.index[key] = c.ll.PushFront(&resultEntry{key: key, families: families})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.index, oldest.Value.(*resultEntry).key)
		c.stats.Evictions++
	}
}

// Stats snapshots the counters.
func (c *resultCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// WorkerState is the durable half of a worker: everything that should
// survive a connection — the cell evaluator (dataset cache + trace
// store) and the result cache. Serve creates a private one when the
// caller passes none; callers that redial (or tests that restart a
// worker mid-grid) pass the same state to every Serve call.
type WorkerState struct {
	ev    *experiments.CellEvaluator
	cache *resultCache
}

// NewWorkerState builds a reusable worker state: an engine with
// engineWorkers goroutines for dataset builds and cell evaluation
// (<= 0 selects one per CPU) and a result cache bounded at cacheSize
// entries (<= 0 selects DefaultResultCacheSize).
func NewWorkerState(engineWorkers, cacheSize int) *WorkerState {
	return &WorkerState{
		ev:    experiments.NewCellEvaluator(experiments.NewEngine(engineWorkers)),
		cache: newResultCache(cacheSize),
	}
}

// Store exposes the state's trace store (for preloading captured
// traces out of band).
func (st *WorkerState) Store() *experiments.TraceStore { return st.ev.Store() }

// CacheStats snapshots the result-cache counters.
func (st *WorkerState) CacheStats() CacheStats { return st.cache.Stats() }

// evalCached answers one request, consulting the result cache first.
func (st *WorkerState) evalCached(req CellRequest) CellResult {
	var ref experiments.TraceSetRef
	if req.Traces != nil {
		ref = *req.Traces
	}
	key := resultKey{cfg: req.Cfg, traces: ref.Key(), scheme: req.Scheme, app: req.App}
	if families, ok := st.cache.get(key); ok {
		return CellResult{ID: req.ID, Families: families, Cached: true}
	}
	families, err := st.ev.Eval(req.Cfg, ref, req.Scheme, req.App)
	if err != nil {
		return CellResult{ID: req.ID, Err: err.Error()}
	}
	out := make([]ml.Confusion, len(families))
	for i, f := range families {
		out[i] = *f
	}
	st.cache.put(key, out)
	return CellResult{ID: req.ID, Families: out}
}
