package experiments

// Unit coverage for the bounded FIFO behind the worker's result cache
// (and the dataset cache and trace store); the end-to-end behaviour —
// restart reuse, byte-identical grids under fault schedules — lives in
// internal/dist.

import (
	"testing"

	"trafficreshape/internal/ml"
	"trafficreshape/internal/trace"
)

func resultKey(seed uint64, scheme string, app trace.App) cellKey {
	return cellKey{cfg: Config{Seed: seed}, scheme: scheme, app: app}
}

// TestResultCacheFIFOEviction: a hit does not refresh an entry, so the
// third key evicts the first one stored even after it was read.
func TestResultCacheFIFOEviction(t *testing.T) {
	c := newFIFOMap[cellKey, []ml.Confusion](2)
	k1 := resultKey(1, "OR", trace.Browsing)
	k2 := resultKey(1, "OR", trace.Video)
	k3 := resultKey(1, "FH", trace.Browsing)
	fams := []ml.Confusion{{}}

	if _, ok := c.get(k1); ok {
		t.Fatal("empty cache returned a hit")
	}
	c.put(k1, fams)
	c.put(k2, fams)
	if _, ok := c.get(k1); !ok {
		t.Fatal("stored entry missing")
	}
	c.put(k3, fams) // evicts k1, the oldest insertion
	if _, ok := c.get(k1); ok {
		t.Error("oldest entry survived eviction")
	}
	for _, k := range []cellKey{k2, k3} {
		if _, ok := c.get(k); !ok {
			t.Errorf("entry %+v was evicted out of insertion order", k)
		}
	}
}

// TestResultCacheKeySeparation: every component of the cell address
// must separate entries — a collision would serve the wrong (albeit
// plausible) result.
func TestResultCacheKeySeparation(t *testing.T) {
	c := newFIFOMap[cellKey, []ml.Confusion](defaultCachedResults)
	var marked ml.Confusion
	marked[1][2] = 99
	c.put(resultKey(1, "OR", trace.Browsing), []ml.Confusion{marked})

	others := []cellKey{
		resultKey(2, "OR", trace.Browsing),                                                 // different config
		resultKey(1, "FH", trace.Browsing),                                                 // different scheme
		resultKey(1, "OR", trace.Video),                                                    // different app
		{cfg: Config{Seed: 1}, traces: "train:x;test:", scheme: "OR", app: trace.Browsing}, // captured vs synthetic
	}
	for i, k := range others {
		if _, ok := c.get(k); ok {
			t.Errorf("key variant %d collided with the stored entry", i)
		}
	}
	if got, ok := c.get(resultKey(1, "OR", trace.Browsing)); !ok || got[0][1][2] != 99 {
		t.Error("exact key did not return the stored entry")
	}
}

// TestResultCachePutDuplicateKeepsOneEntry: a duplicate evaluation of
// a pure cell neither grows the cache nor replaces the stored result.
func TestResultCachePutDuplicateKeepsOneEntry(t *testing.T) {
	c := newFIFOMap[cellKey, []ml.Confusion](4)
	k := resultKey(7, "RR", trace.Gaming)
	first := []ml.Confusion{{}}
	c.put(k, first)
	if got := c.put(k, []ml.Confusion{{}}); &got[0] != &first[0] {
		t.Error("duplicate put replaced the stored result")
	}
	if n := len(c.keys()); n != 1 || len(c.order) != 1 {
		t.Errorf("duplicate put grew the cache: %d entries, %d queued", n, len(c.order))
	}
}
