// Package attack implements the adversary of the paper's threat model
// (§II-A): a passive eavesdropper in the same WLAN who records MAC
// headers, groups traffic per (possibly virtual) MAC address, chops
// each flow into eavesdropping windows of duration W, extracts the
// §IV-C features, and labels each window with a trained classifier.
// It also implements the §V-A physical-layer linking attack that
// clusters MAC addresses by RSSI.
package attack

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"trafficreshape/internal/features"
	"trafficreshape/internal/mac"
	"trafficreshape/internal/ml"
	"trafficreshape/internal/par"
	"trafficreshape/internal/stats"
	"trafficreshape/internal/trace"
)

// Classifier bundles everything the adversary learned from original
// traffic: the fitted scaler and the trained model.
type Classifier struct {
	Scaler *features.Scaler
	Model  ml.Classifier
	// TimingOnly indicates the §IV-D timing attack variant: all
	// packet-size features are zeroed, leaving counts and
	// interarrival times. Padding and morphing only change sizes, so
	// they cannot move this classifier's inputs at all.
	TimingOnly bool
}

// sizeFeatureIndices are the positions of mean/std/max/min size in
// the feature vector, per features.Names.
var sizeFeatureIndices = []int{1, 2, 3, 4, 7, 8, 9, 10}

func maskSizes(v features.Vector) features.Vector {
	for _, i := range sizeFeatureIndices {
		v[i] = 0
	}
	return v
}

// TrainOptions tunes adversary training.
type TrainOptions struct {
	// W is the eavesdropping window used to build training instances.
	W time.Duration
	// Trainer picks the model family; nil trains every family in
	// ml.Trainers and keeps the one with the best held-out accuracy,
	// mirroring the paper's "highest classification accuracy" report.
	Trainer ml.Trainer
	// Seed drives all randomness (shuffles, model init).
	Seed uint64
	// HoldoutFrac is the fraction held out for model selection
	// (default 0.25).
	HoldoutFrac float64
	// TimingOnly trains the §IV-D timing attack: size features are
	// masked out in training and classification.
	TimingOnly bool
}

// Train builds the adversary's classifier from labeled original
// traces — the training phase the paper assumes (the attacker can
// always generate labeled traffic of the seven activities on its own
// machines). It is PrepareTraining followed by Fit.
func Train(traces map[trace.App]*trace.Trace, opt TrainOptions) (*Classifier, error) {
	ts, err := PrepareTraining(traces, opt.W)
	if err != nil {
		return nil, err
	}
	return ts.Fit(opt)
}

// TrainingSet is labeled training traffic in feature space: one raw
// (unscaled, unmasked) feature vector per qualifying window, in
// application order. It is the classifier-independent half of
// training, so one set serves every family, the timing-only variant
// and any later refit. A TrainingSet is read-only once prepared and
// safe to share between goroutines.
type TrainingSet struct {
	Examples []features.Example
}

// PrepareTraining windows every training trace at w (w <= 0 selects
// 5 s) and extracts each window's features, labeled with the map key
// (the ground truth, not the majority packet label). Every
// application needs a trace, and the set needs at least two windows
// per application.
func PrepareTraining(traces map[trace.App]*trace.Trace, w time.Duration) (*TrainingSet, error) {
	if w <= 0 {
		w = 5 * time.Second
	}
	// Window every trace once, count the total, and extract into a
	// single exactly-sized example slice.
	perApp := make([][]trace.Window, trace.NumApps)
	total := 0
	for _, app := range trace.Apps {
		tr, ok := traces[app]
		if !ok {
			return nil, fmt.Errorf("attack: no training trace for %v", app)
		}
		perApp[app] = features.AppendWindowsOf(nil, tr, w, false)
		total += len(perApp[app])
	}
	if total < 2*trace.NumApps {
		return nil, fmt.Errorf("attack: only %d training windows; traces too short", total)
	}
	examples := make([]features.Example, 0, total)
	for _, app := range trace.Apps {
		for _, win := range perApp[app] {
			examples = append(examples, features.Example{X: features.Extract(win), Y: app})
		}
	}
	return &TrainingSet{Examples: examples}, nil
}

// scaled masks the set's size features when timingOnly is set, fits
// the scaler on the result and returns it with the scaled examples,
// a fresh slice the set does not share.
func (ts *TrainingSet) scaled(timingOnly bool) (*features.Scaler, []features.Example) {
	examples := ts.Examples
	if timingOnly {
		examples = slices.Clone(examples)
		for i := range examples {
			examples[i].X = maskSizes(examples[i].X)
		}
	}
	scaler := features.FitScaler(examples)
	return scaler, scaler.ApplyAll(examples)
}

// Fit trains a classifier on the prepared set: it masks the size
// features when opt.TimingOnly is set, fits the scaler and trains
// opt.Trainer, or selects the best family when it is nil. opt.W is
// ignored: the set was windowed when it was prepared.
func (ts *TrainingSet) Fit(opt TrainOptions) (*Classifier, error) {
	if opt.HoldoutFrac <= 0 || opt.HoldoutFrac >= 1 {
		opt.HoldoutFrac = 0.25
	}
	scaler, scaled := ts.scaled(opt.TimingOnly)

	if opt.Trainer != nil {
		model, err := opt.Trainer.Train(scaled, opt.Seed)
		if err != nil {
			return nil, err
		}
		return &Classifier{Scaler: scaler, Model: model, TimingOnly: opt.TimingOnly}, nil
	}

	// Model selection over all families on a held-out split.
	trainSet, holdout := ml.Split(scaled, 1-opt.HoldoutFrac, opt.Seed)
	var best ml.Classifier
	bestAcc := -1.0
	for _, tr := range ml.Trainers() {
		model, err := tr.Train(trainSet, opt.Seed)
		if err != nil {
			return nil, fmt.Errorf("attack: training %s: %w", tr.Name(), err)
		}
		acc := ml.Evaluate(model, holdout).OverallAccuracy()
		if acc > bestAcc {
			bestAcc = acc
			best = model
		}
	}
	// Refit the winning family on all data.
	final, err := mustTrainer(best.Name()).Train(scaled, opt.Seed)
	if err != nil {
		return nil, err
	}
	return &Classifier{Scaler: scaler, Model: final, TimingOnly: opt.TimingOnly}, nil
}

func mustTrainer(name string) ml.Trainer {
	t, err := ml.TrainerByName(name)
	if err != nil {
		panic(err)
	}
	return t
}

// TrainAllParallel trains one classifier per model family on the same
// prepared set. The evaluation harness attacks with every family and
// reports the strongest result, which is the paper's methodology: "We
// present the highest classification accuracy based on these
// features." A defense must hold against the best attacker, not the
// average one.
//
// The scaler is fitted and the set scaled once; the families then
// train concurrently over pool (nil pool = serial), one goroutine
// each, on the shared read-only scaled slice, and share the scaler.
// Every family sees the same examples and seed and owns its result
// slot, so the returned slice (in ml.Trainers order) is bit-identical
// for every pool size, and each classifier equals what Fit with that
// family as opt.Trainer returns. opt.Trainer is ignored.
func TrainAllParallel(ts *TrainingSet, opt TrainOptions, pool *par.Pool) ([]*Classifier, error) {
	scaler, scaled := ts.scaled(opt.TimingOnly)
	trainers := ml.Trainers()
	out := make([]*Classifier, len(trainers))
	errs := make([]error, len(trainers))
	pool.Each(len(trainers), func(i int) {
		model, err := trainers[i].Train(scaled, opt.Seed)
		if err != nil {
			errs[i] = fmt.Errorf("attack: training %s: %w", trainers[i].Name(), err)
			return
		}
		out[i] = &Classifier{Scaler: scaler, Model: model, TimingOnly: opt.TimingOnly}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Classify labels one window. Absent-direction feature blocks are
// mean-imputed (see features.Scaler.ApplyImputed) so single-direction
// sub-flows are judged on what was observed.
func (c *Classifier) Classify(w trace.Window) trace.App {
	return c.classifyVector(features.Extract(w))
}

// classifyVector labels one raw (unscaled, unmasked) feature vector.
func (c *Classifier) classifyVector(x features.Vector) trace.App {
	if c.TimingOnly {
		x = maskSizes(x)
	}
	return c.Model.Predict(c.Scaler.ApplyImputed(x))
}

// FlowWindows is the windowed, feature-extracted form of a set of
// observed flows: one raw feature vector and ground-truth label per
// qualifying eavesdropping window, in the deterministic (address,
// time) order AttackFlows classifies them. Windowing and feature
// extraction are classifier-independent, so a grid cell evaluated by
// several model families computes a FlowWindows once and attacks it
// with each of them, instead of re-windowing per family.
type FlowWindows struct {
	X     []features.Vector
	Truth []trace.App
	// addrs and windows are AppendWindowFlows' scratch, kept so a
	// reused FlowWindows cuts its next flows without allocating.
	addrs   []mac.Address
	windows []trace.Window
}

// WindowFlows cuts every flow with known ground truth into
// eavesdropping windows (W-scaled downlink threshold) and extracts
// each window's raw feature vector. A single scratch window buffer is
// reused across flows — the windows themselves are zero-copy views,
// so only the vectors and labels survive the call.
func WindowFlows(flows map[mac.Address]*trace.Trace, truth map[mac.Address]trace.App, w time.Duration) *FlowWindows {
	return AppendWindowFlows(new(FlowWindows), flows, truth, w)
}

// AppendWindowFlows appends the vectors and labels WindowFlows would
// return to fw's and returns fw. It is the scratch-reuse form: a
// caller that windows cell after cell truncates fw.X and fw.Truth and
// re-fills one FlowWindows. fw keeps no reference to the flows.
func AppendWindowFlows(fw *FlowWindows, flows map[mac.Address]*trace.Trace, truth map[mac.Address]trace.App, w time.Duration) *FlowWindows {
	addrs := fw.addrs[:0]
	for a := range flows {
		addrs = append(addrs, a)
	}
	slices.SortFunc(addrs, mac.Address.Compare)
	for _, addr := range addrs {
		app, ok := truth[addr]
		if !ok {
			continue
		}
		fw.windows = features.AppendWindowsOf(fw.windows[:0], flows[addr], w, false)
		for _, win := range fw.windows {
			fw.X = append(fw.X, features.Extract(win))
			fw.Truth = append(fw.Truth, app)
		}
	}
	// The windows are views of the flows: drop them so fw does not
	// keep the flows alive.
	clear(fw.windows)
	fw.addrs = addrs
	return fw
}

// AttackWindowed classifies pre-windowed flows and tallies the
// confusion matrix. It is the per-family half of AttackFlows.
func (c *Classifier) AttackWindowed(fw *FlowWindows) *ml.Confusion {
	var conf ml.Confusion
	for i, x := range fw.X {
		conf.Add(fw.Truth[i], c.classifyVector(x))
	}
	return &conf
}

// AttackFlows runs the full attack on observed per-address flows whose
// ground truth is known to the evaluator: every flow is windowed with
// the W-scaled downlink threshold, each window classified, and the
// confusion matrix tallied. flows maps the observed MAC address to
// its packet stream; truth labels each address's real application.
func (c *Classifier) AttackFlows(flows map[mac.Address]*trace.Trace, truth map[mac.Address]trace.App, w time.Duration) *ml.Confusion {
	return c.AttackWindowed(WindowFlows(flows, truth, w))
}

// AttackTrace is the single-flow convenience form: the observed trace
// is grouped by MAC (as a sniffer must), every group labeled with the
// known app.
func (c *Classifier) AttackTrace(tr *trace.Trace, app trace.App, w time.Duration) *ml.Confusion {
	flows := tr.ByMAC()
	truth := make(map[mac.Address]trace.App, len(flows))
	for addr := range flows {
		truth[addr] = app
	}
	return c.AttackFlows(flows, truth, w)
}

// --- RSSI linking attack (§V-A) ----------------------------------------------

// RSSIProfile summarizes the signal strength of one observed address.
type RSSIProfile struct {
	Addr mac.Address
	Mean float64
	Std  float64
	N    int
}

// ProfileRSSI computes per-address RSSI statistics from a sniffed
// trace.
func ProfileRSSI(tr *trace.Trace) []RSSIProfile {
	byAddr := tr.ByMAC()
	addrs := make([]mac.Address, 0, len(byAddr))
	for a := range byAddr {
		addrs = append(addrs, a)
	}
	slices.SortFunc(addrs, mac.Address.Compare)
	out := make([]RSSIProfile, 0, len(addrs))
	for _, a := range addrs {
		flow := byAddr[a]
		vals := make([]float64, flow.Len())
		for i, p := range flow.Packets {
			vals[i] = p.RSSI
		}
		s := stats.DescribeBasic(vals)
		out = append(out, RSSIProfile{Addr: a, Mean: s.Mean, Std: s.Std, N: s.N})
	}
	return out
}

// LinkByRSSI clusters addresses whose mean RSSI differs by at most
// tolDB — the §V-A attack: co-located virtual interfaces of one
// physical card show near-identical signal strength, so an adversary
// links them back to one user. Returns groups of addresses believed to
// be the same transmitter (singletons included).
func LinkByRSSI(profiles []RSSIProfile, tolDB float64) [][]mac.Address {
	sorted := append([]RSSIProfile(nil), profiles...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Mean < sorted[j].Mean })
	var groups [][]mac.Address
	var cur []mac.Address
	var curStart float64
	for i, p := range sorted {
		if i == 0 || p.Mean-curStart <= tolDB {
			if i == 0 {
				curStart = p.Mean
			}
			cur = append(cur, p.Addr)
			continue
		}
		groups = append(groups, cur)
		cur = []mac.Address{p.Addr}
		curStart = p.Mean
	}
	if len(cur) > 0 {
		groups = append(groups, cur)
	}
	return groups
}

// LinkingSuccess scores a linking attempt against ground truth: it
// returns the fraction of address pairs that truly share a transmitter
// and were placed in the same group (pairwise recall). truth maps each
// address to its physical owner.
func LinkingSuccess(groups [][]mac.Address, truth map[mac.Address]mac.Address) float64 {
	sameGroup := make(map[[2]mac.Address]bool)
	for _, g := range groups {
		for i := 0; i < len(g); i++ {
			for j := i + 1; j < len(g); j++ {
				a, b := g[i], g[j]
				if b.Compare(a) < 0 {
					a, b = b, a
				}
				sameGroup[[2]mac.Address{a, b}] = true
			}
		}
	}
	addrs := make([]mac.Address, 0, len(truth))
	for a := range truth {
		addrs = append(addrs, a)
	}
	slices.SortFunc(addrs, mac.Address.Compare)
	truePairs, hit := 0, 0
	for i := 0; i < len(addrs); i++ {
		for j := i + 1; j < len(addrs); j++ {
			if truth[addrs[i]] != truth[addrs[j]] {
				continue
			}
			truePairs++
			if sameGroup[[2]mac.Address{addrs[i], addrs[j]}] {
				hit++
			}
		}
	}
	if truePairs == 0 {
		return 0
	}
	return float64(hit) / float64(truePairs)
}
