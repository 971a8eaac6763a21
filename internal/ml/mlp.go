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
// paper's classification system. Per-example SGD with momentum on
// standardized inputs.
type MLPTrainer struct {
	Hidden int     // hidden units; 0 selects a default
	Epochs int     // training passes; 0 selects a default
	LR     float64 // learning rate; 0 selects a default
	// L2 is the weight-decay strength. 0 selects a default and Off
	// disables weight decay entirely: the zero value has always meant
	// "default", so "off" needs the explicit sentinel.
	L2 float64
	// NoAnneal disables learning-rate annealing (for tests).
	NoAnneal bool
}

// Name implements Trainer.
func (t *MLPTrainer) Name() string { return "mlp" }

// mlpMomentum is the classical-momentum coefficient of the velocity
// updates.
const mlpMomentum = 0.9

// MLPScratch owns every buffer one MLP training run needs: the model
// itself, the momentum velocities, the per-example activation and
// hidden-gradient scratch, and the PermInto shuffle buffer. Reusing a
// scratch across TrainScratch calls makes steady-state retraining
// allocation-free — the NN analog of SVMScratch. A scratch must not
// be shared by concurrent TrainScratch calls.
type MLPScratch struct {
	model   mlpModel
	vW1     []float64 // hidden × Dim momentum velocities
	vB1     []float64
	vW2     []float64 // NumApps × hidden momentum velocities
	vB2     [trace.NumApps]float64
	h       []float64 // per-example hidden activations
	dHidden []float64 // per-example hidden-layer gradient
	perm    []int     // epoch shuffle buffer
}

// NewMLPScratch returns an empty scratch; buffers grow on first use.
func NewMLPScratch() *MLPScratch { return &MLPScratch{} }

// growFloats returns buf resized to n, reusing its backing array when
// it is large enough. Contents are unspecified.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// prepare sizes the working buffers for (hidden, n) and zeroes the
// momentum state. The model itself is re-initialized separately.
func (s *MLPScratch) prepare(hidden, n int) {
	s.vW1 = growFloats(s.vW1, hidden*features.Dim)
	s.vB1 = growFloats(s.vB1, hidden)
	s.vW2 = growFloats(s.vW2, trace.NumApps*hidden)
	for _, v := range [][]float64{s.vW1, s.vB1, s.vW2} {
		for i := range v {
			v[i] = 0
		}
	}
	s.vB2 = [trace.NumApps]float64{}
	// h, dHidden and perm are fully overwritten before every read.
	s.h = growFloats(s.h, hidden)
	s.dHidden = growFloats(s.dHidden, hidden)
	if cap(s.perm) < n {
		s.perm = make([]int, n)
	} else {
		s.perm = s.perm[:n]
	}
}

// Train implements Trainer.
func (t *MLPTrainer) Train(examples []features.Example, seed uint64) (Classifier, error) {
	return t.TrainScratch(NewMLPScratch(), examples, seed)
}

// TrainScratch is Train with caller-owned scratch: all working memory
// and the model live in s, so steady-state retraining allocates
// nothing. The returned Classifier aliases s's model — it is valid
// until the next TrainScratch call on the same scratch. Results are
// bit-identical to Train for the same inputs.
func (t *MLPTrainer) TrainScratch(s *MLPScratch, examples []features.Example, seed uint64) (Classifier, error) {
	if len(examples) == 0 {
		return nil, errors.New("ml: mlp needs training examples")
	}
	hidden := t.Hidden
	if hidden <= 0 {
		hidden = 24
	}
	epochs := t.Epochs
	if epochs <= 0 {
		epochs = 60
	}
	lr := t.LR
	if lr <= 0 {
		lr = 0.05
	}
	l2 := t.L2
	switch {
	case l2 == 0:
		l2 = 1e-5
	case l2 < 0: // Off: weight decay genuinely disabled
		l2 = 0
	}
	var r stats.RNG
	r.Reseed(seed)
	s.model.init(hidden, &r)
	s.prepare(hidden, len(examples))
	s.train(examples, epochs, lr, l2, t.NoAnneal, &r)
	return &s.model, nil
}

// train runs per-example momentum SGD over the prepared scratch.
func (s *MLPScratch) train(examples []features.Example, epochs int, lr, l2 float64, noAnneal bool, r *stats.RNG) {
	m := &s.model
	hidden := m.hidden
	for e := 0; e < epochs; e++ {
		eta := lr
		if !noAnneal {
			eta = lr / (1 + 0.05*float64(e))
		}
		r.PermInto(s.perm)
		for _, idx := range s.perm {
			ex := &examples[idx]
			for j := 0; j < hidden; j++ {
				s.h[j] = m.hiddenRow(j, &ex.X)
			}
			dLogits := lossGradient(m.outputProbs(s.h), ex.Y)
			// Hidden gradient reads the pre-update output weights, so
			// it runs before the W2 rows move — the original update
			// order.
			for j := 0; j < hidden; j++ {
				s.dHidden[j] = m.backHidden(j, &dLogits, s.h[j])
			}
			for c := 0; c < trace.NumApps; c++ {
				s.updateW2Row(c, &dLogits, eta, l2)
			}
			for j := 0; j < hidden; j++ {
				s.updateW1Row(j, &ex.X, eta, l2)
			}
		}
	}
}

// mlpModel is the trained network. Weights are flat row-major slices
// (w1[j*Dim+i], w2[c*hidden+j]): the exact arithmetic order of the
// original per-row slices in one allocation and one cache stream
// each.
type mlpModel struct {
	hidden int
	w1     []float64 // hidden × features.Dim
	b1     []float64
	w2     []float64 // trace.NumApps × hidden
	b2     [trace.NumApps]float64
}

// init (re)sizes the model for hidden units and draws fresh Xavier
// weights — the exact NormFloat64 sequence of the original
// constructor (w1 rows in order, then w2 rows).
func (m *mlpModel) init(hidden int, r *stats.RNG) {
	m.hidden = hidden
	m.w1 = growFloats(m.w1, hidden*features.Dim)
	m.b1 = growFloats(m.b1, hidden)
	m.w2 = growFloats(m.w2, trace.NumApps*hidden)
	for i := range m.b1 {
		m.b1[i] = 0
	}
	m.b2 = [trace.NumApps]float64{}
	// Xavier-style init keeps tanh activations in their linear range.
	scale1 := math.Sqrt(2.0 / float64(features.Dim+hidden))
	for i := range m.w1 {
		m.w1[i] = scale1 * r.NormFloat64()
	}
	scale2 := math.Sqrt(2.0 / float64(hidden+trace.NumApps))
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
func (m *mlpModel) outputProbs(h []float64) [trace.NumApps]float64 {
	var logits [trace.NumApps]float64
	maxLogit := math.Inf(-1)
	for c := 0; c < trace.NumApps; c++ {
		row := m.w2[c*m.hidden : (c+1)*m.hidden]
		sum := m.b2[c]
		for j := 0; j < m.hidden; j++ {
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
		g += dLogits[c] * m.w2[c*m.hidden+j]
	}
	return g * (1 - hj*hj)
}

// updateW2Row applies the momentum step to output row c and its bias.
func (s *MLPScratch) updateW2Row(c int, dLogits *[trace.NumApps]float64, eta, l2 float64) {
	m := &s.model
	hidden := m.hidden
	w := m.w2[c*hidden : (c+1)*hidden]
	v := s.vW2[c*hidden : (c+1)*hidden]
	dl := dLogits[c]
	for j := 0; j < hidden; j++ {
		grad := dl*s.h[j] + l2*w[j]
		v[j] = mlpMomentum*v[j] - eta*grad
		w[j] += v[j]
	}
	s.vB2[c] = mlpMomentum*s.vB2[c] - eta*dl
	m.b2[c] += s.vB2[c]
}

// updateW1Row applies the momentum step to hidden row j and its bias.
func (s *MLPScratch) updateW1Row(j int, x *features.Vector, eta, l2 float64) {
	m := &s.model
	w := m.w1[j*features.Dim : (j+1)*features.Dim]
	v := s.vW1[j*features.Dim : (j+1)*features.Dim]
	dh := s.dHidden[j]
	for i := 0; i < features.Dim; i++ {
		grad := dh*x[i] + l2*w[i]
		v[i] = mlpMomentum*v[i] - eta*grad
		w[i] += v[i]
	}
	s.vB1[j] = mlpMomentum*s.vB1[j] - eta*dh
	m.b1[j] += s.vB1[j]
}

// Name implements Classifier.
func (m *mlpModel) Name() string { return "mlp" }

// mlpStackHidden bounds the hidden width served from per-call stack
// scratch in Predict (the default is 24); wider networks fall back to
// one per-call allocation.
const mlpStackHidden = 128

// Predict implements Classifier. The activation scratch lives on the
// caller's stack, not in the model: grid cells share one trained
// model across concurrently evaluated shards, so model-owned scratch
// would race, and per-call heap scratch is the allocation the
// hot-path guards forbid.
func (m *mlpModel) Predict(x features.Vector) trace.App {
	var hbuf [mlpStackHidden]float64
	var h []float64
	if m.hidden <= mlpStackHidden {
		h = hbuf[:m.hidden]
	} else {
		h = make([]float64, m.hidden)
	}
	for j := 0; j < m.hidden; j++ {
		h[j] = m.hiddenRow(j, &x)
	}
	probs := m.outputProbs(h)
	best := 0
	for c := 1; c < trace.NumApps; c++ {
		if probs[c] > probs[best] {
			best = c
		}
	}
	return trace.App(best)
}
