package ml

// Equivalence tests pinning the scratch-reusing SVM trainer
// bit-identical to a frozen copy of the pre-refactor implementation
// (the PR 2 pattern): the reference below is the old
// per-class loop verbatim — sequential r.Split(), per-epoch r.Perm
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
func referenceSVMTrain(examples []features.Example, seed uint64, lambda float64, epochs int) *svmModel {
	if lambda <= 0 {
		lambda = 1e-4
	}
	if epochs <= 0 {
		epochs = 40
	}
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
		want := referenceSVMTrain(tc.examples, tc.seed, 0, 0)
		clf, err := (&SVMTrainer{}).Train(tc.examples, tc.seed)
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		modelsIdentical(t, "serial", clf.(*svmModel), want)
	}
}

// TestSVMTrainScratchReuse retrains across differently sized datasets
// and seeds through one scratch: every run must match a fresh
// reference — stale permutations, labels or weights from the previous
// run must never leak.
func TestSVMTrainScratchReuse(t *testing.T) {
	scratch := NewSVMScratch()
	tr := &SVMTrainer{}
	for pass := 0; pass < 2; pass++ {
		for ci, tc := range svmEquivCases() {
			want := referenceSVMTrain(tc.examples, tc.seed, 0, 0)
			clf, err := tr.TrainScratch(scratch, tc.examples, tc.seed)
			if err != nil {
				t.Fatalf("pass %d case %d: %v", pass, ci, err)
			}
			modelsIdentical(t, "scratch", clf.(*svmModel), want)
		}
	}
}

func TestSVMTrainScratchRejectsEmpty(t *testing.T) {
	if _, err := (&SVMTrainer{}).TrainScratch(NewSVMScratch(), nil, 1); err == nil {
		t.Fatal("TrainScratch should reject an empty training set")
	}
}

// TestSVMTrainScratchAllocFree pins the steady-state zero-allocation
// contract of the fused trainer (the build-side analog of PR 2's
// classification guards).
func TestSVMTrainScratchAllocFree(t *testing.T) {
	examples := syntheticDataset(350, 0.5, 3)
	scratch := NewSVMScratch()
	tr := &SVMTrainer{}
	if _, err := tr.TrainScratch(scratch, examples, 0); err != nil {
		t.Fatal(err)
	}
	seed := uint64(0)
	if allocs := testing.AllocsPerRun(5, func() {
		seed++
		if _, err := tr.TrainScratch(scratch, examples, seed); err != nil {
			panic(err)
		}
	}); allocs != 0 {
		t.Fatalf("TrainScratch allocates %.1f times per run, want 0", allocs)
	}
}

// TestSVMTrainCustomHyperparameters checks equivalence off the default
// hyperparameter path too.
func TestSVMTrainCustomHyperparameters(t *testing.T) {
	examples := syntheticDataset(120, 0.7, 11)
	want := referenceSVMTrain(examples, 5, 1e-3, 7)
	clf, err := (&SVMTrainer{Lambda: 1e-3, Epochs: 7}).Train(examples, 5)
	if err != nil {
		t.Fatal(err)
	}
	modelsIdentical(t, "custom", clf.(*svmModel), want)
}
