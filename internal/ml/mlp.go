package ml

import (
	"errors"
	"math"

	"trafficreshape/internal/features"
	"trafficreshape/internal/stats"
	"trafficreshape/internal/trace"
)

// MLPTrainer trains a one-hidden-layer feed-forward neural network
// with a softmax output and cross-entropy loss — the "NN" half of the
// paper's classification system. Per-example SGD with momentum and an
// annealed learning rate on standardized inputs, at one fixed
// configuration (the mlp* constants).
type MLPTrainer struct{}

// Name implements Trainer.
func (t *MLPTrainer) Name() string { return "mlp" }

const (
	mlpHidden = 24   // hidden units
	mlpEpochs = 60   // training passes
	mlpLR     = 0.05 // initial learning rate, annealed per epoch
	mlpL2     = 1e-5 // weight-decay strength
	// mlpMomentum is the classical-momentum coefficient of the
	// velocity updates.
	mlpMomentum = 0.9
)

// mlpTraining is the working memory of one training run: the model
// being trained, its momentum velocities, the per-example activation
// and hidden-gradient scratch, and the epoch shuffle buffer.
type mlpTraining struct {
	model   *mlpModel
	vW1     [mlpHidden * features.Dim]float64
	vB1     [mlpHidden]float64
	vW2     [trace.NumApps * mlpHidden]float64
	vB2     [trace.NumApps]float64
	h       [mlpHidden]float64 // per-example hidden activations
	dHidden [mlpHidden]float64 // per-example hidden-layer gradient
	perm    []int
}

// Train implements Trainer.
func (t *MLPTrainer) Train(examples []features.Example, seed uint64) (Classifier, error) {
	if len(examples) == 0 {
		return nil, errors.New("ml: mlp needs training examples")
	}
	var r stats.RNG
	r.Reseed(seed)
	s := &mlpTraining{model: &mlpModel{}, perm: make([]int, len(examples))}
	s.model.init(&r)
	s.train(examples, &r)
	return s.model, nil
}

// train runs per-example momentum SGD.
func (s *mlpTraining) train(examples []features.Example, r *stats.RNG) {
	m := s.model
	for e := 0; e < mlpEpochs; e++ {
		eta := mlpLR / (1 + 0.05*float64(e))
		r.PermInto(s.perm)
		for _, idx := range s.perm {
			ex := &examples[idx]
			for j := range s.h {
				s.h[j] = m.hiddenRow(j, &ex.X)
			}
			dLogits := lossGradient(m.outputProbs(&s.h), ex.Y)
			// Hidden gradient reads the pre-update output weights, so
			// it runs before the W2 rows move — the original update
			// order.
			for j := range s.dHidden {
				s.dHidden[j] = m.backHidden(j, &dLogits, s.h[j])
			}
			for c := 0; c < trace.NumApps; c++ {
				s.updateW2Row(c, &dLogits, eta)
			}
			for j := 0; j < mlpHidden; j++ {
				s.updateW1Row(j, &ex.X, eta)
			}
		}
	}
}

// mlpModel is the trained network. Weights are flat row-major arrays
// (w1[j*Dim+i], w2[c*mlpHidden+j]): the exact arithmetic order of the
// original per-row slices in one cache stream each.
type mlpModel struct {
	w1 [mlpHidden * features.Dim]float64
	b1 [mlpHidden]float64
	w2 [trace.NumApps * mlpHidden]float64
	b2 [trace.NumApps]float64
}

// init draws fresh Xavier weights into a zero model — the exact
// NormFloat64 sequence of the original constructor (w1 rows in order,
// then w2 rows).
func (m *mlpModel) init(r *stats.RNG) {
	// Xavier-style init keeps tanh activations in their linear range.
	scale1 := math.Sqrt(2.0 / float64(features.Dim+mlpHidden))
	for i := range m.w1 {
		m.w1[i] = scale1 * r.NormFloat64()
	}
	scale2 := math.Sqrt(2.0 / float64(mlpHidden+trace.NumApps))
	for i := range m.w2 {
		m.w2[i] = scale2 * r.NormFloat64()
	}
}

// hiddenRow computes the tanh activation of hidden unit j on input x
// (by pointer to skip the array copy; the summation order is the
// original's).
func (m *mlpModel) hiddenRow(j int, x *features.Vector) float64 {
	row := m.w1[j*features.Dim : (j+1)*features.Dim]
	sum := m.b1[j]
	for i := 0; i < features.Dim; i++ {
		sum += row[i] * x[i]
	}
	return math.Tanh(sum)
}

// outputProbs computes the softmax class distribution over the hidden
// activations h. Shared by training and Predict, so the output
// arithmetic cannot drift between them.
func (m *mlpModel) outputProbs(h *[mlpHidden]float64) [trace.NumApps]float64 {
	var logits [trace.NumApps]float64
	maxLogit := math.Inf(-1)
	for c := 0; c < trace.NumApps; c++ {
		row := m.w2[c*mlpHidden : (c+1)*mlpHidden]
		sum := m.b2[c]
		for j := 0; j < mlpHidden; j++ {
			sum += row[j] * h[j]
		}
		logits[c] = sum
		if sum > maxLogit {
			maxLogit = sum
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
	return probs
}

// lossGradient turns class probabilities into the cross-entropy
// gradient at the logits (probs is a value copy; subtracting 1 from
// the true class in place is the original's arithmetic).
func lossGradient(probs [trace.NumApps]float64, y trace.App) [trace.NumApps]float64 {
	for c := 0; c < trace.NumApps; c++ {
		if trace.App(c) == y {
			probs[c] -= 1
		}
	}
	return probs
}

// backHidden computes the loss gradient at hidden unit j through the
// tanh derivative — the exact expression and summation order of the
// original backward loop, against the pre-update output weights.
func (m *mlpModel) backHidden(j int, dLogits *[trace.NumApps]float64, hj float64) float64 {
	g := 0.0
	for c := 0; c < trace.NumApps; c++ {
		g += dLogits[c] * m.w2[c*mlpHidden+j]
	}
	return g * (1 - hj*hj)
}

// updateW2Row applies the momentum step to output row c and its bias.
func (s *mlpTraining) updateW2Row(c int, dLogits *[trace.NumApps]float64, eta float64) {
	m := s.model
	w := m.w2[c*mlpHidden : (c+1)*mlpHidden]
	v := s.vW2[c*mlpHidden : (c+1)*mlpHidden]
	dl := dLogits[c]
	for j := 0; j < mlpHidden; j++ {
		grad := dl*s.h[j] + mlpL2*w[j]
		v[j] = mlpMomentum*v[j] - eta*grad
		w[j] += v[j]
	}
	s.vB2[c] = mlpMomentum*s.vB2[c] - eta*dl
	m.b2[c] += s.vB2[c]
}

// updateW1Row applies the momentum step to hidden row j and its bias.
func (s *mlpTraining) updateW1Row(j int, x *features.Vector, eta float64) {
	m := s.model
	w := m.w1[j*features.Dim : (j+1)*features.Dim]
	v := s.vW1[j*features.Dim : (j+1)*features.Dim]
	dh := s.dHidden[j]
	for i := 0; i < features.Dim; i++ {
		grad := dh*x[i] + mlpL2*w[i]
		v[i] = mlpMomentum*v[i] - eta*grad
		w[i] += v[i]
	}
	s.vB1[j] = mlpMomentum*s.vB1[j] - eta*dh
	m.b1[j] += s.vB1[j]
}

// Name implements Classifier.
func (m *mlpModel) Name() string { return "mlp" }

// Predict implements Classifier. The activation scratch lives on the
// caller's stack, not in the model: grid cells share one trained
// model across concurrently evaluated shards, so model-owned scratch
// would race, and per-call heap scratch is the allocation the
// hot-path guards forbid.
func (m *mlpModel) Predict(x features.Vector) trace.App {
	var h [mlpHidden]float64
	for j := range h {
		h[j] = m.hiddenRow(j, &x)
	}
	probs := m.outputProbs(&h)
	best := 0
	for c := 1; c < trace.NumApps; c++ {
		if probs[c] > probs[best] {
			best = c
		}
	}
	return trace.App(best)
}
