package ml

// Equivalence tests pinning the MLP trainer bit-identical to a frozen
// copy of the pre-refactor implementation (the svm_equiv_test.go
// pattern): the reference below is the old training loop verbatim —
// nested [][]float64 weights, per-example forward/dHidden
// allocations, inline momentum updates.
// Any reordering of floating-point arithmetic in the rewrite — in the
// flattened rows or the per-phase row loops — fails these tests
// exactly. The reference is driven at the trainer's one configuration
// (the mlp* constants).

import (
	"math"
	"testing"

	"trafficreshape/internal/features"
	"trafficreshape/internal/stats"
	"trafficreshape/internal/trace"
)

// refMLPModel is the pre-refactor mlpModel, frozen.
type refMLPModel struct {
	hidden int
	w1     [][]float64 // hidden × Dim
	b1     []float64
	w2     [][]float64 // classes × hidden
	b2     []float64
}

// referenceNewMLP is the pre-refactor newMLP, frozen.
func referenceNewMLP(hidden int, r *stats.RNG) *refMLPModel {
	m := &refMLPModel{
		hidden: hidden,
		w1:     make([][]float64, hidden),
		b1:     make([]float64, hidden),
		w2:     make([][]float64, trace.NumApps),
		b2:     make([]float64, trace.NumApps),
	}
	scale1 := math.Sqrt(2.0 / float64(features.Dim+hidden))
	for j := range m.w1 {
		m.w1[j] = make([]float64, features.Dim)
		for i := range m.w1[j] {
			m.w1[j][i] = scale1 * r.NormFloat64()
		}
	}
	scale2 := math.Sqrt(2.0 / float64(hidden+trace.NumApps))
	for c := range m.w2 {
		m.w2[c] = make([]float64, hidden)
		for j := range m.w2[c] {
			m.w2[c][j] = scale2 * r.NormFloat64()
		}
	}
	return m
}

// forward is the pre-refactor mlpModel.forward, frozen.
func (m *refMLPModel) forward(x features.Vector) ([]float64, [trace.NumApps]float64) {
	h := make([]float64, m.hidden)
	for j := 0; j < m.hidden; j++ {
		s := m.b1[j]
		for i := 0; i < features.Dim; i++ {
			s += m.w1[j][i] * x[i]
		}
		h[j] = math.Tanh(s)
	}
	var logits [trace.NumApps]float64
	maxLogit := math.Inf(-1)
	for c := 0; c < trace.NumApps; c++ {
		s := m.b2[c]
		for j := 0; j < m.hidden; j++ {
			s += m.w2[c][j] * h[j]
		}
		logits[c] = s
		if s > maxLogit {
			maxLogit = s
		}
	}
	var probs [trace.NumApps]float64
	sum := 0.0
	for c := range logits {
		probs[c] = math.Exp(logits[c] - maxLogit)
		sum += probs[c]
	}
	for c := range probs {
		probs[c] /= sum
	}
	return h, probs
}

// referenceMLPTrain is the pre-refactor MLPTrainer.Train loop, frozen,
// with annealing always on. Hyperparameters arrive resolved: callers
// pass the trainer's constants.
func referenceMLPTrain(examples []features.Example, seed uint64, hidden, epochs int, lr, l2 float64) *refMLPModel {
	r := stats.NewRNG(seed)
	m := referenceNewMLP(hidden, r)

	n := len(examples)
	const momentum = 0.9
	vW1 := make([][]float64, hidden)
	for i := range vW1 {
		vW1[i] = make([]float64, features.Dim)
	}
	vB1 := make([]float64, hidden)
	vW2 := make([][]float64, trace.NumApps)
	for i := range vW2 {
		vW2[i] = make([]float64, hidden)
	}
	vB2 := make([]float64, trace.NumApps)

	perm := make([]int, n)
	for e := 0; e < epochs; e++ {
		eta := lr / (1 + 0.05*float64(e))
		r.PermInto(perm)
		for _, idx := range perm {
			ex := examples[idx]
			hiddenAct, probs := m.forward(ex.X)

			var dLogits [trace.NumApps]float64
			for c := 0; c < trace.NumApps; c++ {
				dLogits[c] = probs[c]
				if trace.App(c) == ex.Y {
					dLogits[c] -= 1
				}
			}
			dHidden := make([]float64, hidden)
			for j := 0; j < hidden; j++ {
				g := 0.0
				for c := 0; c < trace.NumApps; c++ {
					g += dLogits[c] * m.w2[c][j]
				}
				dHidden[j] = g * (1 - hiddenAct[j]*hiddenAct[j])
			}
			for c := 0; c < trace.NumApps; c++ {
				for j := 0; j < hidden; j++ {
					grad := dLogits[c]*hiddenAct[j] + l2*m.w2[c][j]
					vW2[c][j] = momentum*vW2[c][j] - eta*grad
					m.w2[c][j] += vW2[c][j]
				}
				vB2[c] = momentum*vB2[c] - eta*dLogits[c]
				m.b2[c] += vB2[c]
			}
			for j := 0; j < hidden; j++ {
				for i := 0; i < features.Dim; i++ {
					grad := dHidden[j]*ex.X[i] + l2*m.w1[j][i]
					vW1[j][i] = momentum*vW1[j][i] - eta*grad
					m.w1[j][i] += vW1[j][i]
				}
				vB1[j] = momentum*vB1[j] - eta*dHidden[j]
				m.b1[j] += vB1[j]
			}
		}
	}
	return m
}

// mlpCase is one (dataset, seed) equivalence point.
type mlpCase struct {
	examples []features.Example
	seed     uint64
}

// mlpEquivCases returns the grid the equivalence tests sweep:
// separable and noisy data, tiny through training-sized sets, several
// seeds.
func mlpEquivCases() []mlpCase {
	var cases []mlpCase
	for _, n := range []int{1, 7, 50, 200} {
		for _, noise := range []float64{0.3, 2.0} {
			for _, seed := range []uint64{0, 1, 20110620} {
				cases = append(cases, mlpCase{
					examples: syntheticDataset(n, noise, seed^0xa7),
					seed:     seed,
				})
			}
		}
	}
	return cases
}

func (tc *mlpCase) reference() *refMLPModel {
	return referenceMLPTrain(tc.examples, tc.seed, mlpHidden, mlpEpochs, mlpLR, mlpL2)
}

// mlpModelsIdentical compares the flattened model bit-for-bit against
// the frozen nested-slice reference.
func mlpModelsIdentical(t *testing.T, label string, got *mlpModel, want *refMLPModel) {
	t.Helper()
	if want.hidden != mlpHidden {
		t.Fatalf("%s: reference hidden = %d, trainer %d", label, want.hidden, mlpHidden)
	}
	for j := 0; j < mlpHidden; j++ {
		if got.b1[j] != want.b1[j] {
			t.Fatalf("%s: b1[%d] = %v, reference %v", label, j, got.b1[j], want.b1[j])
		}
		for i := 0; i < features.Dim; i++ {
			if got.w1[j*features.Dim+i] != want.w1[j][i] {
				t.Fatalf("%s: w1[%d][%d] = %v, reference %v",
					label, j, i, got.w1[j*features.Dim+i], want.w1[j][i])
			}
		}
	}
	for c := 0; c < trace.NumApps; c++ {
		if got.b2[c] != want.b2[c] {
			t.Fatalf("%s: b2[%d] = %v, reference %v", label, c, got.b2[c], want.b2[c])
		}
		for j := 0; j < mlpHidden; j++ {
			if got.w2[c*mlpHidden+j] != want.w2[c][j] {
				t.Fatalf("%s: w2[%d][%d] = %v, reference %v",
					label, c, j, got.w2[c*mlpHidden+j], want.w2[c][j])
			}
		}
	}
}

func TestMLPTrainMatchesReference(t *testing.T) {
	for ci, tc := range mlpEquivCases() {
		want := tc.reference()
		clf, err := (&MLPTrainer{}).Train(tc.examples, tc.seed)
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		mlpModelsIdentical(t, "serial", clf.(*mlpModel), want)
	}
}

func TestMLPTrainRejectsEmpty(t *testing.T) {
	if _, err := (&MLPTrainer{}).Train(nil, 1); err == nil {
		t.Fatal("Train should reject an empty training set")
	}
}

// TestMLPPredictAllocFree pins the inference half of the contract:
// the activation scratch lives on the caller's stack (race-free under
// shared-model grid evaluation), so Predict touches the heap zero
// times per window.
func TestMLPPredictAllocFree(t *testing.T) {
	examples := syntheticDataset(100, 0.5, 6)
	clf, err := (&MLPTrainer{}).Train(examples, 1)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	if allocs := testing.AllocsPerRun(50, func() {
		i++
		_ = clf.Predict(examples[i%len(examples)].X)
	}); allocs != 0 {
		t.Fatalf("Predict allocates %.1f times per run, want 0", allocs)
	}
}

// TestMLPPredictMatchesReference pins Predict's labels to the frozen
// forward's argmax.
func TestMLPPredictMatchesReference(t *testing.T) {
	examples := syntheticDataset(70, 0.6, 24)
	clf, err := (&MLPTrainer{}).Train(examples, 9)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceMLPTrain(examples, 9, mlpHidden, mlpEpochs, mlpLR, mlpL2)
	queries := syntheticDataset(70, 1.5, 24^0xfe)
	for qi, q := range queries {
		_, probs := want.forward(q.X)
		best := 0
		for c := 1; c < trace.NumApps; c++ {
			if probs[c] > probs[best] {
				best = c
			}
		}
		if got := clf.Predict(q.X); got != trace.App(best) {
			t.Fatalf("query %d: Predict = %v, reference %v", qi, got, best)
		}
	}
}
