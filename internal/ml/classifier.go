// Package ml implements the traffic-analysis classification system of
// the paper's evaluation (§IV): the adversary trains supervised
// classifiers — an SVM and a neural network, exactly the model
// families of the WiSec'11 system the paper reuses — on feature
// vectors of the original traffic, then labels observed eavesdropping
// windows. kNN and Gaussian naive Bayes are included as cross-checks.
//
// Everything is implemented from scratch on the standard library and
// is deterministic under a caller-supplied seed.
package ml

import (
	"fmt"

	"trafficreshape/internal/features"
	"trafficreshape/internal/trace"
)

// Classifier is a trained multi-class model over feature vectors.
type Classifier interface {
	// Predict returns the most likely application for x.
	Predict(x features.Vector) trace.App
	// Name identifies the model family in reports.
	Name() string
}

// Trainer builds a Classifier from labeled examples.
type Trainer interface {
	Train(examples []features.Example, seed uint64) (Classifier, error)
	Name() string
}

// Trainers returns the classifier families the headline evaluation
// runs: the paper's SVM and neural network plus the kNN and naive
// Bayes cross-checks. The paper reports the highest accuracy across
// its classifiers; the harness does the same over this set.
//
// The decision tree is deliberately NOT in this set: a single
// axis-aligned tree tends to classify on one or two interarrival
// features and ignore sizes entirely, which makes it *stronger*
// against size-reshaped flows on our noise-free synthetic workload —
// an attacker profile the paper's system does not include. The
// attacker-ablation experiment quantifies it explicitly instead of
// letting it silently shift the headline tables.
func Trainers() []Trainer {
	return []Trainer{
		&SVMTrainer{},
		&MLPTrainer{},
		&KNNTrainer{K: 5},
		&NBTrainer{},
	}
}

// AllTrainers returns every implemented family, including the
// decision tree used by the attacker ablation.
func AllTrainers() []Trainer {
	return append(Trainers(), &TreeTrainer{})
}

// TrainerByName resolves a trainer for the CLI tools.
func TrainerByName(name string) (Trainer, error) {
	for _, t := range AllTrainers() {
		if t.Name() == name {
			return t, nil
		}
	}
	return nil, fmt.Errorf("ml: unknown classifier %q", name)
}
