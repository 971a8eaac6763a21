package ml

import (
	"math"
	"testing"

	"trafficreshape/internal/features"
	"trafficreshape/internal/stats"
	"trafficreshape/internal/trace"
)

// syntheticDataset builds a well-separated 7-class Gaussian problem:
// each class c is centered at a distinct corner of feature space.
func syntheticDataset(n int, noise float64, seed uint64) []features.Example {
	r := stats.NewRNG(seed)
	var out []features.Example
	for i := 0; i < n; i++ {
		class := trace.App(i % trace.NumApps)
		var v features.Vector
		for j := range v {
			center := 0.0
			if j%trace.NumApps == int(class) {
				center = 3.0
			}
			v[j] = center + noise*r.NormFloat64()
		}
		out = append(out, features.Example{X: v, Y: class})
	}
	return out
}

func TestTrainersOnSeparableData(t *testing.T) {
	train := syntheticDataset(700, 0.4, 1)
	test := syntheticDataset(280, 0.4, 2)
	for _, tr := range Trainers() {
		tr := tr
		t.Run(tr.Name(), func(t *testing.T) {
			model, err := tr.Train(train, 7)
			if err != nil {
				t.Fatal(err)
			}
			acc := Evaluate(model, test).OverallAccuracy()
			if acc < 0.95 {
				t.Errorf("%s accuracy on separable data = %.3f, want >= 0.95", tr.Name(), acc)
			}
		})
	}
}

func TestTrainersOnNoisyData(t *testing.T) {
	// With heavy noise, accuracy must still beat random guessing.
	train := syntheticDataset(700, 2.0, 3)
	test := syntheticDataset(280, 2.0, 4)
	for _, tr := range Trainers() {
		model, err := tr.Train(train, 7)
		if err != nil {
			t.Fatal(err)
		}
		acc := Evaluate(model, test).OverallAccuracy()
		if acc < 1.0/float64(trace.NumApps)+0.1 {
			t.Errorf("%s accuracy on noisy data = %.3f, want clearly above chance", tr.Name(), acc)
		}
	}
}

func TestTrainersRejectEmpty(t *testing.T) {
	for _, tr := range Trainers() {
		if _, err := tr.Train(nil, 1); err == nil {
			t.Errorf("%s should reject empty training set", tr.Name())
		}
	}
}

func TestTrainDeterministic(t *testing.T) {
	train := syntheticDataset(210, 0.5, 5)
	test := syntheticDataset(70, 0.5, 6)
	for _, trainerName := range []string{"svm", "mlp"} {
		tr, err := TrainerByName(trainerName)
		if err != nil {
			t.Fatal(err)
		}
		m1, err := tr.Train(train, 99)
		if err != nil {
			t.Fatal(err)
		}
		m2, err := tr.Train(train, 99)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range test {
			if m1.Predict(e.X) != m2.Predict(e.X) {
				t.Fatalf("%s: same seed produced different models", trainerName)
			}
		}
	}
}

func TestTrainerByName(t *testing.T) {
	for _, name := range []string{"svm", "mlp", "knn", "nb"} {
		tr, err := TrainerByName(name)
		if err != nil || tr.Name() != name {
			t.Errorf("TrainerByName(%q) = %v, %v", name, tr, err)
		}
	}
	if _, err := TrainerByName("forest"); err == nil {
		t.Error("unknown trainer should error")
	}
}

func TestKNNTieBreak(t *testing.T) {
	// Two classes, k=2, equidistant vote: nearest neighbour wins.
	train := []features.Example{
		{X: features.Vector{0}, Y: trace.Browsing},
		{X: features.Vector{2}, Y: trace.Chatting},
	}
	model, err := (&KNNTrainer{K: 2}).Train(train, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := model.Predict(features.Vector{0.5}); got != trace.Browsing {
		t.Errorf("tie at k=2 should fall to nearest neighbour, got %v", got)
	}
}

func TestKNNKLargerThanTrain(t *testing.T) {
	train := []features.Example{
		{X: features.Vector{0}, Y: trace.Browsing},
		{X: features.Vector{1}, Y: trace.Browsing},
	}
	model, err := (&KNNTrainer{K: 50}).Train(train, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := model.Predict(features.Vector{0.2}); got != trace.Browsing {
		t.Errorf("Predict = %v, want browsing", got)
	}
}

func TestNBHandlesMissingClass(t *testing.T) {
	// Train with only two of seven classes; prediction must be one of
	// the seen classes.
	var train []features.Example
	r := stats.NewRNG(8)
	for i := 0; i < 100; i++ {
		y := trace.Downloading
		base := 5.0
		if i%2 == 0 {
			y = trace.Chatting
			base = -5.0
		}
		var v features.Vector
		for j := range v {
			v[j] = base + r.NormFloat64()
		}
		train = append(train, features.Example{X: v, Y: y})
	}
	model, err := (&NBTrainer{}).Train(train, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := model.Predict(features.Vector{5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5})
	if got != trace.Downloading {
		t.Errorf("Predict = %v, want downloading", got)
	}
}

func TestConfusionMetrics(t *testing.T) {
	var c Confusion
	// 8 browsing windows: 6 right, 2 as chatting.
	for i := 0; i < 6; i++ {
		c.Add(trace.Browsing, trace.Browsing)
	}
	c.Add(trace.Browsing, trace.Chatting)
	c.Add(trace.Browsing, trace.Chatting)
	// 4 chatting windows, all right.
	for i := 0; i < 4; i++ {
		c.Add(trace.Chatting, trace.Chatting)
	}

	if acc, ok := c.Accuracy(trace.Browsing); !ok || math.Abs(acc-0.75) > 1e-12 {
		t.Errorf("browsing accuracy = %v/%v, want 0.75", acc, ok)
	}
	if acc, ok := c.Accuracy(trace.Chatting); !ok || acc != 1 {
		t.Errorf("chatting accuracy = %v/%v, want 1", acc, ok)
	}
	if _, ok := c.Accuracy(trace.Video); ok {
		t.Error("video had no instances; Accuracy should report !ok")
	}
	// FP(chatting): of the 8 non-chatting instances, 2 were labeled
	// chatting.
	if fp := c.FalsePositive(trace.Chatting); math.Abs(fp-0.25) > 1e-12 {
		t.Errorf("chatting FP = %v, want 0.25", fp)
	}
	if fp := c.FalsePositive(trace.Browsing); fp != 0 {
		t.Errorf("browsing FP = %v, want 0", fp)
	}
	if got := c.MeanAccuracy(); math.Abs(got-0.875) > 1e-12 {
		t.Errorf("mean accuracy = %v, want 0.875 (average of 0.75 and 1)", got)
	}
	if got := c.OverallAccuracy(); math.Abs(got-10.0/12) > 1e-12 {
		t.Errorf("overall accuracy = %v, want 10/12", got)
	}
	if c.Total() != 12 {
		t.Errorf("total = %d, want 12", c.Total())
	}
}

func TestConfusionMerge(t *testing.T) {
	var a, b Confusion
	a.Add(trace.Browsing, trace.Browsing)
	b.Add(trace.Browsing, trace.Video)
	a.Merge(&b)
	if a.Total() != 2 || a[trace.Browsing][trace.Video] != 1 {
		t.Fatalf("merge wrong: %+v", a)
	}
}

func TestSplitFractions(t *testing.T) {
	ex := syntheticDataset(100, 0.1, 9)
	train, test := Split(ex, 0.7, 1)
	if len(train) != 70 || len(test) != 30 {
		t.Fatalf("split = %d/%d, want 70/30", len(train), len(test))
	}
	// All examples preserved.
	if len(train)+len(test) != len(ex) {
		t.Fatal("split lost examples")
	}
}

func TestSplitDegenerate(t *testing.T) {
	ex := syntheticDataset(2, 0.1, 10)
	train, test := Split(ex, 0.99, 1)
	if len(train) != 1 || len(test) != 1 {
		t.Fatalf("degenerate split = %d/%d, want 1/1", len(train), len(test))
	}
}

func TestConfusionString(t *testing.T) {
	var c Confusion
	c.Add(trace.Browsing, trace.Video)
	s := c.String()
	if len(s) == 0 {
		t.Fatal("empty confusion rendering")
	}
}
