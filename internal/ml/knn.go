package ml

import (
	"errors"
	"math"

	"trafficreshape/internal/features"
	"trafficreshape/internal/trace"
)

// KNNTrainer builds a k-nearest-neighbours classifier, a
// non-parametric cross-check on the paper's SVM/NN pair. Euclidean
// distance over standardized features; majority vote with nearest-
// neighbour tie break.
type KNNTrainer struct {
	K int // neighbourhood size; 0 selects 5
}

// Name implements Trainer.
func (t *KNNTrainer) Name() string { return "knn" }

// Train implements Trainer.
func (t *KNNTrainer) Train(examples []features.Example, _ uint64) (Classifier, error) {
	if len(examples) == 0 {
		return nil, errors.New("ml: knn needs training examples")
	}
	k := t.K
	if k <= 0 {
		k = 5
	}
	if k > len(examples) {
		k = len(examples)
	}
	m := &knnModel{
		k: k,
		x: make([]float64, len(examples)*features.Dim),
		y: make([]trace.App, len(examples)),
	}
	for i, e := range examples {
		copy(m.x[i*features.Dim:], e.X[:])
		m.y[i] = e.Y
	}
	return m, nil
}

// knnModel keeps the training set as flat rows: x holds example i's
// features at x[i*Dim:(i+1)*Dim] and y its label, so Predict streams
// over one contiguous array instead of copying a Vector per row.
type knnModel struct {
	k int
	x []float64
	y []trace.App
}

// Name implements Classifier.
func (m *knnModel) Name() string { return "knn" }

// Predict implements Classifier. Distance is computed only over the
// query's observed feature blocks: a block of six consecutive
// exactly-zero features matches the scaler's mean-imputation encoding
// of "this direction was not observed" (z-scored real data never
// produces six exact zeros), and judging a single-direction sub-flow
// by features it does not have would let the absent block outvote the
// evidence. This partial-distance rule is the standard kNN treatment
// of missing features.
//
// The scan takes four training rows per iteration. Each row's squared
// distance is summed left to right, exactly as a one-row loop would,
// but the four sums are independent chains the CPU overlaps. The rows
// are then offered to the selection in index order.
func (m *knnModel) Predict(x features.Vector) trace.App {
	lo, hi := observedRange(&x)
	q := x[lo:hi]
	// Bounded selection instead of a full sort: a max-heap of the k
	// best (distance, index) pairs streams over the training set in
	// O(n log k) with the heap living on the stack for practical k, so
	// steady-state prediction performs zero heap allocations and is
	// safe to run concurrently from many shards. Ties in distance are
	// broken toward the lower training index, making the selected
	// neighbourhood a pure function of the inputs.
	var stack [knnStackK]knnHit
	var sel []knnHit
	if m.k <= knnStackK {
		sel = stack[:0]
	} else {
		sel = make([]knnHit, 0, m.k)
	}
	k, norm := m.k, float64(hi-lo)
	const dim = features.Dim
	n := len(m.y)
	i := 0
	for ; i+4 <= n; i += 4 {
		r0 := m.x[i*dim+lo : i*dim+hi]
		r1 := m.x[(i+1)*dim+lo : (i+1)*dim+hi]
		r2 := m.x[(i+2)*dim+lo : (i+2)*dim+hi]
		r3 := m.x[(i+3)*dim+lo : (i+3)*dim+hi]
		r0, r1, r2, r3 = r0[:len(q)], r1[:len(q)], r2[:len(q)], r3[:len(q)]
		var s0, s1, s2, s3 float64
		for j, v := range q {
			d0, d1, d2, d3 := r0[j]-v, r1[j]-v, r2[j]-v, r3[j]-v
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		sel = knnOffer(sel, k, norm, s0, i, m.y[i])
		sel = knnOffer(sel, k, norm, s1, i+1, m.y[i+1])
		sel = knnOffer(sel, k, norm, s2, i+2, m.y[i+2])
		sel = knnOffer(sel, k, norm, s3, i+3, m.y[i+3])
	}
	for ; i < n; i++ {
		row := m.x[i*dim+lo : i*dim+hi]
		row = row[:len(q)]
		s := 0.0
		for j, v := range q {
			d := row[j] - v
			s += d * d
		}
		sel = knnOffer(sel, k, norm, s, i, m.y[i])
	}
	var votes [trace.NumApps]int
	nearest := 0
	for i := range sel {
		votes[sel[i].app]++
		if knnHitLess(sel[i], sel[nearest]) {
			nearest = i
		}
	}
	best := sel[nearest].app // nearest neighbour breaks ties
	bestVotes := votes[best]
	for c := 0; c < trace.NumApps; c++ {
		if votes[c] > bestVotes {
			bestVotes = votes[c]
			best = trace.App(c)
		}
	}
	return best
}

// knnStackK bounds the neighbourhood size served from stack scratch;
// larger k (rare — the default is 5) falls back to one per-call
// allocation.
const knnStackK = 32

// knnOffer considers training row idx, whose squared differences sum
// to s, for sel: a max-heap of at most k hits under knnHitLess (root =
// worst retained hit). Rows must be offered in increasing index
// order: then a row whose sum is not below the root's cannot displace
// it (s/norm is monotone in s, and an equal distance loses the tie on
// its higher index), so it is dropped before the division.
func knnOffer(sel []knnHit, k int, norm, s float64, idx int, app trace.App) []knnHit {
	if len(sel) == k && s >= sel[0].s {
		return sel
	}
	return knnInsert(sel, k, norm, s, idx, app)
}

// knnInsert is knnOffer's slow path, kept out of line so the skip
// test inlines into the scan.
func knnInsert(sel []knnHit, k int, norm, s float64, idx int, app trace.App) []knnHit {
	// Normalize so queries with different numbers of observed
	// dimensions are comparable.
	h := knnHit{s: s, d: s / norm, idx: int32(idx), app: app}
	if len(sel) < k {
		sel = append(sel, h)
		knnSiftUp(sel, len(sel)-1)
	} else if knnHitLess(h, sel[0]) {
		sel[0] = h
		knnSiftDown(sel, 0)
	}
	return sel
}

// knnHit is one candidate neighbour: s is its raw sum of squared
// differences, d = s / norm the distance it is ordered by.
type knnHit struct {
	s, d float64
	idx  int32
	app  trace.App
}

// knnHitLess orders hits by (distance, training index): the total
// order that defines both the selected k-neighbourhood and the
// nearest-neighbour tie break.
func knnHitLess(a, b knnHit) bool {
	return a.d < b.d || (a.d == b.d && a.idx < b.idx)
}

// knnSiftUp/knnSiftDown maintain sel as a max-heap under knnHitLess
// (root = worst retained hit). Hand-rolled rather than container/heap
// so the hot path stays free of interface allocations.
func knnSiftUp(sel []knnHit, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !knnHitLess(sel[parent], sel[i]) {
			return
		}
		sel[parent], sel[i] = sel[i], sel[parent]
		i = parent
	}
}

func knnSiftDown(sel []knnHit, i int) {
	for {
		largest := i
		if l := 2*i + 1; l < len(sel) && knnHitLess(sel[largest], sel[l]) {
			largest = l
		}
		if r := 2*i + 2; r < len(sel) && knnHitLess(sel[largest], sel[r]) {
			largest = r
		}
		if largest == i {
			return
		}
		sel[i], sel[largest] = sel[largest], sel[i]
		i = largest
	}
}

// observedRange returns the features [lo, hi) a query is judged on:
// a six-feature direction block that is entirely zero is left out.
// The two blocks are contiguous, so the result is [0,6), [6,12) or,
// when both or neither block is observed (a degenerate query), the
// whole vector.
func observedRange(x *features.Vector) (lo, hi int) {
	down := blockObserved(x[:6])
	up := blockObserved(x[6:])
	switch {
	case down && !up:
		return 0, 6
	case up && !down:
		return 6, features.Dim
	}
	return 0, features.Dim
}

func blockObserved(block []float64) bool {
	for _, v := range block {
		if v != 0 {
			return true
		}
	}
	return false
}

// NBTrainer builds a Gaussian naive Bayes classifier: per class and
// feature, a univariate normal fitted by maximum likelihood. Cheap,
// deterministic, and a useful sanity baseline.
type NBTrainer struct{}

// Name implements Trainer.
func (t *NBTrainer) Name() string { return "nb" }

// Train implements Trainer.
func (t *NBTrainer) Train(examples []features.Example, _ uint64) (Classifier, error) {
	if len(examples) == 0 {
		return nil, errors.New("ml: nb needs training examples")
	}
	m := &nbModel{}
	var counts [trace.NumApps]float64
	for _, e := range examples {
		c := int(e.Y)
		counts[c]++
		for i, x := range e.X {
			m.mean[c][i] += x
		}
	}
	for c := 0; c < trace.NumApps; c++ {
		if counts[c] == 0 {
			continue
		}
		for i := range m.mean[c] {
			m.mean[c][i] /= counts[c]
		}
	}
	for _, e := range examples {
		c := int(e.Y)
		for i, x := range e.X {
			d := x - m.mean[c][i]
			m.variance[c][i] += d * d
		}
	}
	total := float64(len(examples))
	for c := 0; c < trace.NumApps; c++ {
		if counts[c] == 0 {
			m.logPrior[c] = math.Inf(-1)
			continue
		}
		m.logPrior[c] = math.Log(counts[c] / total)
		for i := range m.variance[c] {
			v := m.variance[c][i]/counts[c] + 1e-4 // smoothing
			m.variance[c][i] = v
			m.norm[c][i] = -0.5 * math.Log(2*math.Pi*v)
		}
	}
	return m, nil
}

type nbModel struct {
	logPrior [trace.NumApps]float64
	mean     [trace.NumApps]features.Vector
	variance [trace.NumApps]features.Vector
	// norm is each normal's log normaliser, -0.5·ln(2πσ²), fixed at
	// training so Predict takes no logarithms.
	norm [trace.NumApps]features.Vector
}

// Name implements Classifier.
func (m *nbModel) Name() string { return "nb" }

// Predict implements Classifier.
func (m *nbModel) Predict(x features.Vector) trace.App {
	best := 0
	bestLL := math.Inf(-1)
	for c := 0; c < trace.NumApps; c++ {
		ll := m.logPrior[c]
		if math.IsInf(ll, -1) {
			continue
		}
		for i := range x {
			v := m.variance[c][i]
			d := x[i] - m.mean[c][i]
			ll += m.norm[c][i] - d*d/(2*v)
		}
		if ll > bestLL {
			bestLL = ll
			best = c
		}
	}
	return trace.App(best)
}
