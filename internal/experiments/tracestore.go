package experiments

// Captured-trace support: the paper's evaluation reshapes *captured*
// wireless traces, but the distributed engine's cells were only
// addressable as pure functions of a Config — regenerable anywhere,
// shippable as a few JSON fields. A TraceSet breaks that purity
// deliberately: it injects externally supplied (captured, replayed,
// non-regenerable) traffic into dataset construction, and the
// TraceSetRef — one content digest per (role, application) — restores
// wire-addressability: a cell built over captured traffic is named by
// (Config, TraceSetRef, scheme, app), and any process holding traces
// with those digests rebuilds the identical dataset. The TraceStore
// is that holding: a content-addressed map the coordinator fills from
// the grid's TraceSet and workers fill from preloaded trace frames.

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"trafficreshape/internal/trace"
)

// TraceSet carries externally supplied traffic for a dataset build:
// per-application training traces (what the adversary learns from)
// and test traces (what is attacked). Either map may cover only some
// applications — missing ones are generated synthetically from the
// Config, so captured and synthetic cells mix in one grid. A nil or
// empty TraceSet is the fully synthetic dataset. The maps are treated
// as immutable from the first Ref() call on.
type TraceSet struct {
	Train map[trace.App]*trace.Trace
	Test  map[trace.App]*trace.Trace

	refOnce sync.Once
	ref     TraceSetRef
}

// Ref computes the set's wire address: one digest per (role, app),
// empty strings marking synthetically generated slots. The digests
// are computed once and memoized — hashing re-encodes every captured
// trace, and one set is addressed many times (each dataset build,
// each derived window, every grid submission).
func (s *TraceSet) Ref() TraceSetRef {
	if s == nil {
		return TraceSetRef{}
	}
	s.refOnce.Do(func() {
		s.ref = TraceSetRef{Train: digestSlots(s.Train), Test: digestSlots(s.Test)}
	})
	return s.ref
}

// Empty reports whether the set supplies no traces at all.
func (s *TraceSet) Empty() bool {
	return s == nil || (len(s.Train) == 0 && len(s.Test) == 0)
}

func digestSlots(m map[trace.App]*trace.Trace) []string {
	if len(m) == 0 {
		return nil
	}
	slots := make([]string, trace.NumApps)
	for app, tr := range m {
		if tr == nil || int(app) >= trace.NumApps {
			continue
		}
		slots[app] = trace.Digest(tr)
	}
	return slots
}

// TraceSetRef is the wire form of a TraceSet: Train[i] / Test[i] hold
// the content digest of the captured trace for trace.Apps[i], "" where
// the slot is synthetic. The zero value (both slices nil) means fully
// synthetic. Refs travel inside cell requests; they are small (a few
// digests), while the traces themselves ship once per worker through
// the preload frames.
type TraceSetRef struct {
	Train []string `json:",omitempty"`
	Test  []string `json:",omitempty"`
}

// Empty reports whether the ref names no captured trace.
func (r TraceSetRef) Empty() bool {
	for _, d := range r.Train {
		if d != "" {
			return false
		}
	}
	for _, d := range r.Test {
		if d != "" {
			return false
		}
	}
	return true
}

// Digests returns the distinct digests the ref names, sorted — the
// transfer list a coordinator walks when preloading a worker.
func (r TraceSetRef) Digests() []string {
	seen := make(map[string]bool)
	for _, d := range r.Train {
		if d != "" {
			seen[d] = true
		}
	}
	for _, d := range r.Test {
		if d != "" {
			seen[d] = true
		}
	}
	out := make([]string, 0, len(seen))
	for d := range seen {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// Key canonicalizes the ref for use in comparable cache keys ("" iff
// the ref is fully synthetic).
func (r TraceSetRef) Key() string {
	if r.Empty() {
		return ""
	}
	var b strings.Builder
	b.WriteString("train:")
	b.WriteString(strings.Join(r.Train, ","))
	b.WriteString(";test:")
	b.WriteString(strings.Join(r.Test, ","))
	return b.String()
}

// TraceStore holds captured traces content-addressed by digest. It is
// safe for concurrent use: worker read loops add preloaded traces
// while evaluation goroutines resolve refs against it, and one store
// may outlive many coordinator connections (which is what makes a
// rejoining worker's preload resumable — it announces the digests it
// already holds instead of receiving them again).
//
// A coordinator's store is unbounded: it must hold every trace of the
// grids it serves, and it lives only as long as the run. A worker's
// store (in its CellEvaluator) is bounded: a long-lived redial worker
// sees arbitrarily many captured sets over its lifetime, and traces
// are the heaviest objects it retains. Eviction is safe — a cell
// whose trace was evicted fails its store resolution, which the
// coordinator turns into local fallback, and the next connection's
// trace-have announcement reflects the store's true contents.
type TraceStore struct {
	traces *fifoMap[string, *trace.Trace]
}

// NewTraceStore returns an empty, unbounded store.
func NewTraceStore() *TraceStore { return newTraceStore(0) }

// newTraceStore returns an empty store that retains at most limit
// traces, evicting the oldest beyond it (<= 0 is unbounded).
func newTraceStore(limit int) *TraceStore {
	return &TraceStore{traces: newFIFOMap[string, *trace.Trace](limit)}
}

// Put stores tr under its content digest and returns the digest.
// Traces are treated as immutable once stored.
func (s *TraceStore) Put(tr *trace.Trace) string {
	d := trace.Digest(tr)
	s.traces.put(d, tr)
	return d
}

// Get returns the trace stored under digest, if any.
func (s *TraceStore) Get(digest string) (*trace.Trace, bool) {
	return s.traces.get(digest)
}

// Digests lists the stored digests, sorted.
func (s *TraceStore) Digests() []string {
	out := s.traces.keys()
	sort.Strings(out)
	return out
}

// AddResolved stores set's traces under the digests ref already
// computed for them, skipping entries that are present — sparing the
// repeated SHA-256 of large captured traces when the same grid is
// submitted many times. ref must be set.Ref() (the coordinator keeps
// the pair together on the dataset).
func (s *TraceStore) AddResolved(ref TraceSetRef, set *TraceSet) {
	if set == nil {
		return
	}
	s.addResolvedSlots(ref.Train, set.Train)
	s.addResolvedSlots(ref.Test, set.Test)
}

func (s *TraceStore) addResolvedSlots(slots []string, m map[trace.App]*trace.Trace) {
	for i, d := range slots {
		if d == "" || i >= trace.NumApps {
			continue
		}
		tr := m[trace.App(i)]
		if tr == nil {
			continue
		}
		s.traces.put(d, tr)
	}
}

// Resolve materializes the TraceSet a ref names from the store's
// contents. Every named digest must be present; a miss is an error
// naming the digest, so a worker can report exactly what the preload
// failed to deliver.
func (s *TraceStore) Resolve(ref TraceSetRef) (*TraceSet, error) {
	if ref.Empty() {
		return nil, nil
	}
	set := &TraceSet{}
	var err error
	set.Train, err = s.resolveSlots(ref.Train)
	if err != nil {
		return nil, err
	}
	set.Test, err = s.resolveSlots(ref.Test)
	if err != nil {
		return nil, err
	}
	return set, nil
}

func (s *TraceStore) resolveSlots(slots []string) (map[trace.App]*trace.Trace, error) {
	if len(slots) == 0 {
		return nil, nil
	}
	out := make(map[trace.App]*trace.Trace)
	for i, d := range slots {
		if d == "" {
			continue
		}
		if i >= trace.NumApps {
			return nil, fmt.Errorf("experiments: trace ref slot %d beyond the application set", i)
		}
		tr, ok := s.Get(d)
		if !ok {
			return nil, fmt.Errorf("experiments: trace %s not in store", d)
		}
		out[trace.App(i)] = tr
	}
	return out, nil
}
