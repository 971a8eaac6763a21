package ml

// Equivalence tests pinning the SVM trainer bit-identical to a frozen
// copy of the pre-refactor implementation: the reference below is the
// old per-class loop verbatim — sequential r.Split(), per-epoch r.Perm
// allocations, branch-per-step labels, always-on shrink pass. Any
// reordering of floating-point arithmetic in the rewrite fails these
// tests exactly.

import (
	"testing"

	"trafficreshape/internal/features"
	"trafficreshape/internal/stats"
	"trafficreshape/internal/trace"
)

// referenceSVMTrain is the pre-refactor SVMTrainer.Train, frozen.
// Hyperparameters arrive resolved: callers pass the trainer's
// constants.
func referenceSVMTrain(examples []features.Example, seed uint64, lambda float64, epochs int) *svmModel {
	m := &svmModel{}
	r := stats.NewRNG(seed)
	for class := 0; class < trace.NumApps; class++ {
		w, b := referenceTrainBinarySVM(examples, trace.App(class), lambda, epochs, r.Split())
		m.weights[class] = w
		m.bias[class] = b
	}
	return m
}

// referenceTrainBinarySVM is the pre-refactor trainBinarySVM, frozen.
func referenceTrainBinarySVM(examples []features.Example, target trace.App, lambda float64, epochs int, r *stats.RNG) (features.Vector, float64) {
	var w features.Vector
	var b float64
	n := len(examples)
	step := 0
	for e := 0; e < epochs; e++ {
		perm := r.Perm(n)
		for _, idx := range perm {
			step++
			eta := 1 / (lambda*float64(step) + 1)
			ex := examples[idx]
			y := -1.0
			if ex.Y == target {
				y = 1.0
			}
			margin := y * (dot(&w, &ex.X) + b)
			scale := 1 - eta*lambda
			if scale < 0 {
				scale = 0
			}
			for i := range w {
				w[i] *= scale
			}
			if margin < 1 {
				for i := range w {
					w[i] += eta * y * ex.X[i]
				}
				b += eta * y
			}
		}
	}
	return w, b
}

// svmEquivCases returns the (dataset, seed) grid the equivalence
// tests sweep: separable and noisy data, tiny through training-sized
// sets, several seeds.
func svmEquivCases() []struct {
	examples []features.Example
	seed     uint64
} {
	var cases []struct {
		examples []features.Example
		seed     uint64
	}
	for _, n := range []int{1, 7, 50, 350} {
		for _, noise := range []float64{0.3, 2.0} {
			for _, seed := range []uint64{0, 1, 20110620} {
				cases = append(cases, struct {
					examples []features.Example
					seed     uint64
				}{syntheticDataset(n, noise, seed^0xd5), seed})
			}
		}
	}
	return cases
}

func modelsIdentical(t *testing.T, label string, got, want *svmModel) {
	t.Helper()
	for c := 0; c < trace.NumApps; c++ {
		if got.bias[c] != want.bias[c] {
			t.Fatalf("%s: class %d bias = %v, reference %v", label, c, got.bias[c], want.bias[c])
		}
		for i := range got.weights[c] {
			if got.weights[c][i] != want.weights[c][i] {
				t.Fatalf("%s: class %d weight[%d] = %v, reference %v",
					label, c, i, got.weights[c][i], want.weights[c][i])
			}
		}
	}
}

func TestSVMTrainMatchesReference(t *testing.T) {
	for ci, tc := range svmEquivCases() {
		want := referenceSVMTrain(tc.examples, tc.seed, svmLambda, svmEpochs)
		clf, err := (&SVMTrainer{}).Train(tc.examples, tc.seed)
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		modelsIdentical(t, "serial", clf.(*svmModel), want)
	}
}

func TestSVMTrainRejectsEmpty(t *testing.T) {
	if _, err := (&SVMTrainer{}).Train(nil, 1); err == nil {
		t.Fatal("Train should reject an empty training set")
	}
}

// TestSVMTrainCustomHyperparameters checks one binary machine against
// the frozen reference off the trainer's constants too: trainBinarySVM
// takes lambda and epochs as arguments, so its arithmetic must match
// at any setting, not only at svmLambda and svmEpochs.
func TestSVMTrainCustomHyperparameters(t *testing.T) {
	examples := syntheticDataset(120, 0.7, 11)
	for class := 0; class < trace.NumApps; class++ {
		want, wantB := referenceTrainBinarySVM(examples, trace.App(class), 1e-3, 7, stats.NewRNG(uint64(class)))
		ys := make([]float64, len(examples))
		for i := range examples {
			ys[i] = -1
			if examples[i].Y == trace.App(class) {
				ys[i] = 1
			}
		}
		got, gotB := trainBinarySVM(examples, ys, 1e-3, 7, stats.NewRNG(uint64(class)), make([]int, len(examples)))
		if got != want || gotB != wantB {
			t.Fatalf("class %d: machine (%v, %v), reference (%v, %v)", class, got, gotB, want, wantB)
		}
	}
}
