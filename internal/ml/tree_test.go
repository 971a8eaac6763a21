package ml

import (
	"testing"

	"trafficreshape/internal/features"
	"trafficreshape/internal/trace"
)

func TestTreeOnSeparableData(t *testing.T) {
	train := syntheticDataset(700, 0.4, 21)
	test := syntheticDataset(280, 0.4, 22)
	model, err := (&TreeTrainer{}).Train(train, 1)
	if err != nil {
		t.Fatal(err)
	}
	if acc := Evaluate(model, test).OverallAccuracy(); acc < 0.90 {
		t.Errorf("tree accuracy on separable data = %.3f, want >= 0.90", acc)
	}
}

func TestTreePureLeaf(t *testing.T) {
	// A single-class dataset yields a single leaf.
	var train []features.Example
	for i := 0; i < 20; i++ {
		train = append(train, features.Example{X: features.Vector{float64(i)}, Y: trace.Gaming})
	}
	model, err := (&TreeTrainer{}).Train(train, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := -5; i < 25; i++ {
		if got := model.Predict(features.Vector{float64(i)}); got != trace.Gaming {
			t.Fatalf("pure tree predicted %v", got)
		}
	}
}

func TestTreeRespectsDepthLimit(t *testing.T) {
	train := syntheticDataset(300, 1.0, 23)
	idx := make([]int, len(train))
	for i := range idx {
		idx[i] = i
	}
	shallow := &treeModel{root: growTree(train, idx, 1, treeMinLeaf)}
	// Depth-1 tree can emit at most two distinct labels.
	seen := map[trace.App]bool{}
	for _, e := range syntheticDataset(200, 1.0, 24) {
		seen[shallow.Predict(e.X)] = true
	}
	if len(seen) > 2 {
		t.Fatalf("depth-1 tree produced %d distinct labels", len(seen))
	}
}

func TestTreeSimpleThreshold(t *testing.T) {
	// One informative feature: below 0 → chatting, above → video.
	var train []features.Example
	for i := 0; i < 50; i++ {
		train = append(train,
			features.Example{X: features.Vector{-1 - float64(i%5)}, Y: trace.Chatting},
			features.Example{X: features.Vector{1 + float64(i%5)}, Y: trace.Video},
		)
	}
	model, err := (&TreeTrainer{}).Train(train, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := model.Predict(features.Vector{-3}); got != trace.Chatting {
		t.Errorf("Predict(-3) = %v, want chatting", got)
	}
	if got := model.Predict(features.Vector{3}); got != trace.Video {
		t.Errorf("Predict(3) = %v, want video", got)
	}
}

func TestTreeRejectsEmpty(t *testing.T) {
	if _, err := (&TreeTrainer{}).Train(nil, 1); err == nil {
		t.Fatal("empty training set accepted")
	}
}

func TestTreeDeterministic(t *testing.T) {
	train := syntheticDataset(210, 0.5, 25)
	test := syntheticDataset(70, 0.5, 26)
	m1, err := (&TreeTrainer{}).Train(train, 1)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := (&TreeTrainer{}).Train(train, 99) // seed is unused by trees
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range test {
		if m1.Predict(e.X) != m2.Predict(e.X) {
			t.Fatal("tree training is not deterministic")
		}
	}
}

func TestTreeFamilyRegistration(t *testing.T) {
	// The tree is available via AllTrainers and by name, but is
	// deliberately excluded from the headline Trainers set (see the
	// Trainers doc comment and the attacker-ablation experiment).
	for _, tr := range Trainers() {
		if tr.Name() == "tree" {
			t.Fatal("tree must not be in the headline Trainers set")
		}
	}
	found := false
	for _, tr := range AllTrainers() {
		if tr.Name() == "tree" {
			found = true
		}
	}
	if !found {
		t.Fatal("tree missing from AllTrainers()")
	}
	if _, err := TrainerByName("tree"); err != nil {
		t.Fatal(err)
	}
}
