package ml

import (
	"fmt"
	"strings"

	"trafficreshape/internal/features"
	"trafficreshape/internal/stats"
	"trafficreshape/internal/trace"
)

// Confusion is a row-per-truth, column-per-prediction count matrix
// over the seven applications.
type Confusion [trace.NumApps][trace.NumApps]int

// Add records one classification outcome.
func (c *Confusion) Add(truth, predicted trace.App) {
	c[truth][predicted]++
}

// Merge accumulates another confusion matrix into this one.
func (c *Confusion) Merge(other *Confusion) {
	for i := range c {
		for j := range c[i] {
			c[i][j] += other[i][j]
		}
	}
}

// Total returns the number of recorded instances.
func (c *Confusion) Total() int {
	n := 0
	for i := range c {
		for j := range c[i] {
			n += c[i][j]
		}
	}
	return n
}

// ClassTotal returns the number of instances whose ground truth is app.
func (c *Confusion) ClassTotal(app trace.App) int {
	n := 0
	for j := range c[app] {
		n += c[app][j]
	}
	return n
}

// Accuracy returns the per-class recognition rate: the fraction of
// windows of app classified as app. Returns ok=false when no instance
// of app was observed (e.g. every window was filtered out).
func (c *Confusion) Accuracy(app trace.App) (acc float64, ok bool) {
	total := c.ClassTotal(app)
	if total == 0 {
		return 0, false
	}
	return float64(c[app][app]) / float64(total), true
}

// MeanAccuracy is the paper's "mean accuracy": the average of per-class
// recognition probabilities over the classes that produced instances.
func (c *Confusion) MeanAccuracy() float64 {
	sum := 0.0
	classes := 0
	for _, app := range trace.Apps {
		if acc, ok := c.Accuracy(app); ok {
			sum += acc
			classes++
		}
	}
	if classes == 0 {
		return 0
	}
	return sum / float64(classes)
}

// OverallAccuracy is the fraction of all instances classified
// correctly (micro average).
func (c *Confusion) OverallAccuracy() float64 {
	total := c.Total()
	if total == 0 {
		return 0
	}
	correct := 0
	for i := range c {
		correct += c[i][i]
	}
	return float64(correct) / float64(total)
}

// FalsePositive returns the paper's FP metric for app (§IV, citing
// Nguyen & Armitage): the percentage of instances belonging to other
// classes that were classified as app.
func (c *Confusion) FalsePositive(app trace.App) float64 {
	others := 0
	fp := 0
	for _, truth := range trace.Apps {
		if truth == app {
			continue
		}
		for _, pred := range trace.Apps {
			if c[truth][pred] > 0 {
				others += c[truth][pred]
				if pred == app {
					fp += c[truth][pred]
				}
			}
		}
	}
	if others == 0 {
		return 0
	}
	return float64(fp) / float64(others)
}

// MeanFalsePositive averages FalsePositive across all classes.
func (c *Confusion) MeanFalsePositive() float64 {
	sum := 0.0
	for _, app := range trace.Apps {
		sum += c.FalsePositive(app)
	}
	return sum / float64(trace.NumApps)
}

// String renders the matrix for logs.
func (c *Confusion) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s", "truth\\pred")
	for _, app := range trace.Apps {
		fmt.Fprintf(&b, "%8s", app.Short())
	}
	b.WriteString("\n")
	for _, truth := range trace.Apps {
		fmt.Fprintf(&b, "%-12s", truth.Short())
		for _, pred := range trace.Apps {
			fmt.Fprintf(&b, "%8d", c[truth][pred])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Evaluate classifies examples and tallies the confusion matrix.
// Examples must already be standardized with the training scaler.
func Evaluate(model Classifier, examples []features.Example) *Confusion {
	var c Confusion
	for _, e := range examples {
		c.Add(e.Y, model.Predict(e.X))
	}
	return &c
}

// Split shuffles examples deterministically and splits them into
// train/test with the given training fraction.
func Split(examples []features.Example, trainFrac float64, seed uint64) (train, test []features.Example) {
	shuffled := append([]features.Example(nil), examples...)
	r := stats.NewRNG(seed)
	r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	cut := int(float64(len(shuffled)) * trainFrac)
	if cut < 1 {
		cut = 1
	}
	if cut >= len(shuffled) && len(shuffled) > 1 {
		cut = len(shuffled) - 1
	}
	return shuffled[:cut], shuffled[cut:]
}
