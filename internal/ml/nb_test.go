package ml

import (
	"math"
	"testing"

	"trafficreshape/internal/features"
	"trafficreshape/internal/stats"
	"trafficreshape/internal/trace"
)

// nbPredictReference is Predict with the normaliser computed per
// prediction, as it was before Train precomputed it.
func nbPredictReference(m *nbModel, x features.Vector) trace.App {
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
			ll += -0.5*math.Log(2*math.Pi*v) - d*d/(2*v)
		}
		if ll > bestLL {
			bestLL = ll
			best = c
		}
	}
	return trace.App(best)
}

// Property: the precomputed normaliser is bit for bit the per-call
// term, and predicts what the per-call logarithm did, on random models
// (some classes absent, per-class spreads from tight to wide) and
// random queries.
func TestNBNormaliserMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := stats.NewRNG(seed)
		classes := 2 + r.Intn(trace.NumApps-1)
		var mean, spread [trace.NumApps]features.Vector
		for c := range mean {
			for j := range mean[c] {
				mean[c][j] = r.NormFloat64()
				spread[c][j] = 0.05 + 2*r.Float64()
			}
		}
		examples := make([]features.Example, 30+r.Intn(200))
		for i := range examples {
			c := r.Intn(classes)
			var v features.Vector
			for j := range v {
				v[j] = mean[c][j] + spread[c][j]*r.NormFloat64()
			}
			examples[i] = features.Example{X: v, Y: trace.App(c)}
		}
		model, err := (&NBTrainer{}).Train(examples, seed)
		if err != nil {
			t.Fatal(err)
		}
		m := model.(*nbModel)
		for c := 0; c < classes; c++ {
			for i, v := range m.variance[c] {
				if got, want := m.norm[c][i], -0.5*math.Log(2*math.Pi*v); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d class %d feature %d: normaliser %v, per-call term %v", seed, c, i, got, want)
				}
			}
		}
		for q := 0; q < 200; q++ {
			var x features.Vector
			for j := range x {
				x[j] = 1.5 * r.NormFloat64()
			}
			if got, want := m.Predict(x), nbPredictReference(m, x); got != want {
				t.Fatalf("seed %d query %d: Predict = %v, reference = %v", seed, q, got, want)
			}
		}
	}
}
