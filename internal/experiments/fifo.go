package experiments

import "sync"

// fifoMap is the package's one bounded cache: a mutex-guarded map that
// holds at most limit entries (<= 0 is unbounded) and evicts in
// insertion order. It backs the dataset caches, the trace store and
// the worker's result cache. Every entry is a pure function of its
// key, so eviction is always safe: an evicted key is rebuilt,
// re-shipped or re-evaluated on next use, to the same bytes.
//
// A hit does not refresh an entry. An LRU would evict a different
// entry only when a hit or a duplicate put comes before an eviction,
// and neither a run (the cell memo leaves the result cache 0 hits)
// nor a one-entry cache produces that order.
type fifoMap[K comparable, V any] struct {
	mu    sync.Mutex
	limit int
	m     map[K]V
	order []K // oldest first; kept only when bounded
}

func newFIFOMap[K comparable, V any](limit int) *fifoMap[K, V] {
	return &fifoMap[K, V]{limit: limit, m: make(map[K]V)}
}

// get returns the value stored under k.
func (f *fifoMap[K, V]) get(k K) (V, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	v, ok := f.m[k]
	return v, ok
}

// put stores v under k unless k is already present, and returns the
// value k now holds, so the first put of a key wins. A new key beyond
// the limit evicts the oldest.
func (f *fifoMap[K, V]) put(k K, v V) V {
	f.mu.Lock()
	defer f.mu.Unlock()
	if old, ok := f.m[k]; ok {
		return old
	}
	f.m[k] = v
	if f.limit > 0 {
		f.order = append(f.order, k)
		if len(f.order) > f.limit {
			delete(f.m, f.order[0])
			f.order = f.order[1:]
		}
	}
	return v
}

// keys lists the stored keys in no particular order.
func (f *fifoMap[K, V]) keys() []K {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]K, 0, len(f.m))
	for k := range f.m {
		out = append(out, k)
	}
	return out
}
