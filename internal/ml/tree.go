package ml

import (
	"errors"
	"sort"

	"trafficreshape/internal/features"
	"trafficreshape/internal/trace"
)

// TreeTrainer builds a CART-style decision tree with Gini impurity,
// axis-aligned thresholds and depth/size stopping rules. Trees are a
// common traffic-classification family (the Nguyen–Armitage survey
// the paper cites covers them) and add a non-linear, non-distance
// cross-check to the attack suite. It grows at one fixed
// configuration (treeMaxDepth, treeMinLeaf).
type TreeTrainer struct{}

const (
	treeMaxDepth = 8 // depth bound
	treeMinLeaf  = 3 // minimum samples per leaf
)

// Name implements Trainer.
func (t *TreeTrainer) Name() string { return "tree" }

// Train implements Trainer.
func (t *TreeTrainer) Train(examples []features.Example, _ uint64) (Classifier, error) {
	if len(examples) == 0 {
		return nil, errors.New("ml: tree needs training examples")
	}
	idx := make([]int, len(examples))
	for i := range idx {
		idx[i] = i
	}
	root := growTree(examples, idx, treeMaxDepth, treeMinLeaf)
	return &treeModel{root: root}, nil
}

type treeNode struct {
	leaf    bool
	label   trace.App
	feature int
	cut     float64
	lo, hi  *treeNode
}

type treeModel struct{ root *treeNode }

// Name implements Classifier.
func (m *treeModel) Name() string { return "tree" }

// Predict implements Classifier.
func (m *treeModel) Predict(x features.Vector) trace.App {
	n := m.root
	for !n.leaf {
		if x[n.feature] <= n.cut {
			n = n.lo
		} else {
			n = n.hi
		}
	}
	return n.label
}

func classCounts(examples []features.Example, idx []int) [trace.NumApps]int {
	var counts [trace.NumApps]int
	for _, i := range idx {
		counts[examples[i].Y]++
	}
	return counts
}

func majority(counts [trace.NumApps]int) trace.App {
	best := 0
	for c := 1; c < trace.NumApps; c++ {
		if counts[c] > counts[best] {
			best = c
		}
	}
	return trace.App(best)
}

func gini(counts [trace.NumApps]int, total int) float64 {
	if total == 0 {
		return 0
	}
	g := 1.0
	for _, c := range counts {
		p := float64(c) / float64(total)
		g -= p * p
	}
	return g
}

func pure(counts [trace.NumApps]int) bool {
	nonzero := 0
	for _, c := range counts {
		if c > 0 {
			nonzero++
		}
	}
	return nonzero <= 1
}

func growTree(examples []features.Example, idx []int, depth, minLeaf int) *treeNode {
	counts := classCounts(examples, idx)
	if depth == 0 || len(idx) < 2*minLeaf || pure(counts) {
		return &treeNode{leaf: true, label: majority(counts)}
	}
	bestFeature, bestCut, bestScore := -1, 0.0, gini(counts, len(idx))
	// Exhaustive axis-aligned search: for 12 features and a few
	// hundred windows this is instant.
	for f := 0; f < features.Dim; f++ {
		ordered := append([]int(nil), idx...)
		sort.Slice(ordered, func(a, b int) bool {
			return examples[ordered[a]].X[f] < examples[ordered[b]].X[f]
		})
		var loCounts [trace.NumApps]int
		hiCounts := counts
		for k := 0; k < len(ordered)-1; k++ {
			y := examples[ordered[k]].Y
			loCounts[y]++
			hiCounts[y]--
			left, right := k+1, len(ordered)-k-1
			if left < minLeaf || right < minLeaf {
				continue
			}
			a := examples[ordered[k]].X[f]
			b := examples[ordered[k+1]].X[f]
			if a == b {
				continue // cannot cut between equal values
			}
			score := (float64(left)*gini(loCounts, left) +
				float64(right)*gini(hiCounts, right)) / float64(len(ordered))
			if score < bestScore-1e-12 {
				bestScore = score
				bestFeature = f
				bestCut = (a + b) / 2
			}
		}
	}
	if bestFeature < 0 {
		return &treeNode{leaf: true, label: majority(counts)}
	}
	var lo, hi []int
	for _, i := range idx {
		if examples[i].X[bestFeature] <= bestCut {
			lo = append(lo, i)
		} else {
			hi = append(hi, i)
		}
	}
	if len(lo) == 0 || len(hi) == 0 {
		return &treeNode{leaf: true, label: majority(counts)}
	}
	return &treeNode{
		feature: bestFeature,
		cut:     bestCut,
		lo:      growTree(examples, lo, depth-1, minLeaf),
		hi:      growTree(examples, hi, depth-1, minLeaf),
	}
}
