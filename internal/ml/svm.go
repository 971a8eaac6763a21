package ml

import (
	"errors"

	"trafficreshape/internal/features"
	"trafficreshape/internal/stats"
	"trafficreshape/internal/trace"
)

// SVMTrainer trains a multi-class linear SVM by one-vs-rest
// decomposition. Each binary machine is optimized with the Pegasos
// primal sub-gradient method (Shalev-Shwartz et al.), which converges
// quickly on standardized low-dimensional features and needs no
// kernel cache — appropriate for the 12-dimensional window features.
type SVMTrainer struct {
	// Lambda is the regularization strength: zero selects a default
	// tuned on held-out original traffic, Off disables regularization
	// (the Pegasos step size degenerates to a constant 1 and the
	// shrink pass to a no-op).
	Lambda float64
	// Epochs is the number of passes over the training set; zero
	// selects a default.
	Epochs int
}

// Name implements Trainer.
func (t *SVMTrainer) Name() string { return "svm" }

// SVMScratch owns every buffer one SVM training run needs: the
// current class's child RNG state, permutation buffer and ±1 label
// vector, and the model itself. Reusing a scratch across TrainScratch
// calls makes steady-state retraining allocation-free — the build-side
// analog of the classification path's window scratch.
type SVMScratch struct {
	rng   stats.RNG
	perm  []int
	ys    []float64
	model svmModel
}

// NewSVMScratch returns an empty scratch; buffers grow on first use.
func NewSVMScratch() *SVMScratch { return &SVMScratch{} }

// prepare sizes the buffers for n examples.
func (s *SVMScratch) prepare(n int) {
	if cap(s.perm) < n {
		s.perm = make([]int, n)
		s.ys = make([]float64, n)
	}
	s.perm = s.perm[:n]
	s.ys = s.ys[:n]
}

// Train implements Trainer.
func (t *SVMTrainer) Train(examples []features.Example, seed uint64) (Classifier, error) {
	return t.TrainScratch(NewSVMScratch(), examples, seed)
}

// TrainScratch is Train with caller-owned scratch: all working memory
// and the model live in s, so steady-state retraining allocates
// nothing. The returned Classifier aliases s's model — it is valid
// until the next TrainScratch call on the same scratch. Results are
// bit-identical to Train for the same inputs.
func (t *SVMTrainer) TrainScratch(s *SVMScratch, examples []features.Example, seed uint64) (Classifier, error) {
	if len(examples) == 0 {
		return nil, errors.New("ml: svm needs training examples")
	}
	lambda := t.Lambda
	switch {
	case lambda == 0:
		lambda = 1e-4
	case lambda < 0: // Off: regularization genuinely disabled
		lambda = 0
	}
	epochs := t.Epochs
	if epochs <= 0 {
		epochs = 40
	}
	var r stats.RNG
	r.Reseed(seed)
	s.prepare(len(examples))
	for class := 0; class < trace.NumApps; class++ {
		// Each class draws its child stream from r in class order;
		// r feeds nothing else, so every stream is the one the
		// original per-class r.Split() produced.
		r.SplitInto(&s.rng)
		// ±1 one-vs-rest labels, computed once per class instead of
		// one comparison per Pegasos step.
		for i := range examples {
			if examples[i].Y == trace.App(class) {
				s.ys[i] = 1
			} else {
				s.ys[i] = -1
			}
		}
		s.model.weights[class], s.model.bias[class] = trainBinarySVM(examples, s.ys, lambda, epochs, &s.rng, s.perm)
	}
	return &s.model, nil
}

// trainBinarySVM runs Pegasos for one one-vs-rest machine. ys holds
// the precomputed ±1 labels; perm is the reused per-epoch shuffle
// buffer. Every floating-point operation happens in the exact order of
// the original per-class loop (two elementwise statements per weight,
// explicit intermediates forbidding fused multiply-adds), so the
// result is bit-identical to the pre-scratch implementation.
func trainBinarySVM(examples []features.Example, ys []float64, lambda float64, epochs int, r *stats.RNG, perm []int) (features.Vector, float64) {
	var w features.Vector
	var b float64
	step := 0
	// w starts at zero and stays zero until the first margin violation
	// (which the shifted schedule makes happen on the first step of
	// almost every stream); until then the O(d) shrink pass is a no-op
	// on zeros and is skipped.
	wZero := true
	for e := 0; e < epochs; e++ {
		r.PermInto(perm)
		for _, idx := range perm {
			step++
			// Pegasos schedule shifted by t0 = 1/λ: the classic
			// 1/(λt) rate starts at 1/λ (here 10⁴), which makes the
			// unregularized bias term diverge before the data can
			// pull it back. Starting at η=1 keeps the same
			// asymptotics with a stable head.
			eta := 1 / (lambda*float64(step) + 1)
			ex := &examples[idx]
			y := ys[idx]
			margin := y * (dot(&w, &ex.X) + b)
			// Sub-gradient step: shrink weights, and when the
			// margin is violated push toward the example.
			scale := 1 - eta*lambda
			if scale < 0 {
				scale = 0
			}
			if margin < 1 {
				ey := eta * y
				for i := range w {
					wi := w[i] * scale
					wi += ey * ex.X[i]
					w[i] = wi
				}
				b += ey
				wZero = false
			} else if !wZero {
				for i := range w {
					w[i] *= scale
				}
			}
		}
	}
	return w, b
}

type svmModel struct {
	weights [trace.NumApps]features.Vector
	bias    [trace.NumApps]float64
}

// Name implements Classifier.
func (m *svmModel) Name() string { return "svm" }

// Predict implements Classifier: highest one-vs-rest margin wins.
func (m *svmModel) Predict(x features.Vector) trace.App {
	best := 0
	bestScore := dot(&m.weights[0], &x) + m.bias[0]
	for c := 1; c < trace.NumApps; c++ {
		score := dot(&m.weights[c], &x) + m.bias[c]
		if score > bestScore {
			bestScore = score
			best = c
		}
	}
	return trace.App(best)
}

// dot takes its vectors by pointer purely to skip the per-call array
// copies (duffcopy was ~8% of training time); the summation order is
// untouched, so results are bit-identical to the by-value form.
func dot(a, b *features.Vector) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
