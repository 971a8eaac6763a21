package ml

import (
	"sort"
	"testing"

	"trafficreshape/internal/features"
	"trafficreshape/internal/stats"
	"trafficreshape/internal/trace"
)

// knnPredictReference is the pre-selection implementation of Predict:
// compute every masked distance, full-sort, vote over the first k.
// One deliberate difference from the deleted code: the old
// sort.Slice ordered by distance alone, which left the permutation of
// exact-distance ties unspecified (whatever the unstable sort did);
// this reference orders by (distance, index) — the total order the
// heap selection implements — so equivalence is well-defined even
// when training vectors repeat. Wherever the old sort's outcome was
// determined (no tie straddling the k boundary), the two orders
// select the same neighbourhood.
func knnPredictReference(m *knnModel, x features.Vector) trace.App {
	mask := blockMask(x)
	type hit struct {
		d   float64
		idx int
		app trace.App
	}
	hits := make([]hit, len(m.y))
	for i, app := range m.y {
		var row features.Vector
		copy(row[:], m.x[i*features.Dim:(i+1)*features.Dim])
		hits[i] = hit{d: sqDistMasked(row, x, mask), idx: i, app: app}
	}
	sort.Slice(hits, func(i, j int) bool {
		return hits[i].d < hits[j].d || (hits[i].d == hits[j].d && hits[i].idx < hits[j].idx)
	})
	var votes [trace.NumApps]int
	for i := 0; i < m.k; i++ {
		votes[hits[i].app]++
	}
	best := hits[0].app
	bestVotes := votes[best]
	for c := 0; c < trace.NumApps; c++ {
		if votes[c] > bestVotes {
			bestVotes = votes[c]
			best = trace.App(c)
		}
	}
	return best
}

// blockMask is the reference form of Predict's observed range:
// per-dimension inclusion flags, where a six-feature direction block
// that is entirely zero is excluded. If everything is zero the full
// vector is used (degenerate query).
func blockMask(x features.Vector) [features.Dim]bool {
	var mask [features.Dim]bool
	any := false
	for block := 0; block < features.Dim; block += 6 {
		present := false
		for i := block; i < block+6 && i < features.Dim; i++ {
			if x[i] != 0 {
				present = true
				break
			}
		}
		for i := block; i < block+6 && i < features.Dim; i++ {
			mask[i] = present
		}
		any = any || present
	}
	if !any {
		for i := range mask {
			mask[i] = true
		}
	}
	return mask
}

// sqDistMasked is the reference masked distance: the mean squared
// difference over the included dimensions.
func sqDistMasked(a, b features.Vector, mask [features.Dim]bool) float64 {
	s := 0.0
	n := 0
	for i := range a {
		if !mask[i] {
			continue
		}
		d := a[i] - b[i]
		s += d * d
		n++
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

func randomKNN(t *testing.T, n, k int, seed uint64) (*knnModel, *stats.RNG) {
	t.Helper()
	r := stats.NewRNG(seed)
	examples := make([]features.Example, n)
	for i := range examples {
		var v features.Vector
		for j := range v {
			v[j] = r.NormFloat64()
		}
		examples[i] = features.Example{X: v, Y: trace.App(r.Intn(trace.NumApps))}
	}
	model, err := (&KNNTrainer{K: k}).Train(examples, seed)
	if err != nil {
		t.Fatal(err)
	}
	return model.(*knnModel), r
}

// Property: heap selection and the full-sort reference agree on every
// prediction, across training sizes, k values (including k beyond the
// stack bound) and random queries. The queries cover every observed
// range: both directions, downlink only, uplink only (the other block
// zeroed, as the scaler encodes an unobserved direction) and the
// all-zero degenerate query.
func TestKNNSelectionEquivalentToSort(t *testing.T) {
	shapes := []struct {
		name     string
		down, up bool
	}{
		{"both", true, true},
		{"downlink-only", true, false},
		{"uplink-only", false, true},
		{"all-zero", false, false},
	}
	for seed := uint64(1); seed <= 12; seed++ {
		for _, k := range []int{1, 2, 5, 17, knnStackK, knnStackK + 9} {
			n := 40 + int(seed)*23
			model, r := randomKNN(t, n, k, seed)
			for q := 0; q < 40; q++ {
				shape := shapes[q%len(shapes)]
				var x features.Vector
				for j := range x {
					if (j < 6 && shape.down) || (j >= 6 && shape.up) {
						x[j] = r.NormFloat64()
					}
				}
				if got, want := model.Predict(x), knnPredictReference(model, x); got != want {
					t.Fatalf("seed %d k %d query %d (%s): Predict = %v, reference = %v", seed, k, q, shape.name, got, want)
				}
			}
		}
	}
}

// Distance ties from duplicated training vectors must resolve to the
// lowest training index — on both sides of the k boundary.
func TestKNNTieBreakOnDuplicates(t *testing.T) {
	dup := features.Vector{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	train := []features.Example{
		{X: dup, Y: trace.Gaming},      // idx 0: nearest by tie-break
		{X: dup, Y: trace.Video},       // idx 1
		{X: dup, Y: trace.Video},       // idx 2
		{X: dup, Y: trace.Downloading}, // idx 3: tied but beyond k
		{X: features.Vector{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}, Y: trace.Chatting},
	}
	model, err := (&KNNTrainer{K: 3}).Train(train, 1)
	if err != nil {
		t.Fatal(err)
	}
	// k = 3 selects indices 0,1,2: Video outvotes Gaming 2-1.
	if got := model.Predict(dup); got != trace.Video {
		t.Fatalf("Predict = %v, want video (majority of the three lowest-index ties)", got)
	}
	m := model.(*knnModel)
	if got, want := m.Predict(dup), knnPredictReference(m, dup); got != want {
		t.Fatalf("tie case: Predict = %v, reference = %v", got, want)
	}
}

// The all-zero query is the degenerate blockMask case: every feature
// participates, and selection must still match the reference.
func TestKNNAllZeroQuery(t *testing.T) {
	model, _ := randomKNN(t, 100, 5, 99)
	var zero features.Vector
	if got, want := model.Predict(zero), knnPredictReference(model, zero); got != want {
		t.Fatalf("all-zero query: Predict = %v, reference = %v", got, want)
	}
}

// Steady-state prediction with practical k must not allocate.
func TestKNNPredictAllocFree(t *testing.T) {
	model, r := randomKNN(t, 500, 5, 7)
	var x features.Vector
	for j := range x {
		x[j] = r.NormFloat64()
	}
	var sink trace.App
	allocs := testing.AllocsPerRun(100, func() {
		sink = model.Predict(x)
	})
	_ = sink
	if allocs != 0 {
		t.Fatalf("Predict allocates %.1f times per call, want 0", allocs)
	}
}
