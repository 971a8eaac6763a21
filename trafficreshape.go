// Package trafficreshape is a Go implementation of traffic reshaping,
// the wireless traffic-analysis defense of Zhang, He and Liu,
// "Defending Against Traffic Analysis in Wireless Networks Through
// Traffic Reshaping" (ICDCS 2011).
//
// Traffic reshaping creates multiple virtual MAC interfaces over a
// single wireless card and schedules each packet onto one of them in
// real time. An eavesdropper who aggregates traffic per MAC address
// then sees several sub-flows whose packet-size and timing features
// do not resemble the original flow, defeating application
// classification without adding a single byte of padding.
//
// The package is a facade over the internal implementation:
//
//   - traffic generation for the paper's seven applications
//     (NewWorkload, Generate);
//   - the reshaping schedulers — Orthogonal Reshaping plus the
//     Random, Round-Robin and Frequency-Hopping baselines
//     (NewReshaper and the Strategy constants);
//   - the traffic-analysis adversary — feature extraction and
//     SVM/NN/kNN/NB classifiers (TrainAdversary, Adversary.Attack);
//   - the comparison defenses — padding and morphing (PadToMTU,
//     MorphTraffic).
//
// The experiment harness regenerating every table and figure in the
// paper is cmd/experiments, which drives internal/experiments.Engine.
// See README.md for a tour and examples/ for runnable programs.
package trafficreshape

import (
	"fmt"
	"time"

	"trafficreshape/internal/appgen"
	"trafficreshape/internal/attack"
	"trafficreshape/internal/defense"
	"trafficreshape/internal/ml"
	"trafficreshape/internal/reshape"
	"trafficreshape/internal/trace"
)

// Re-exported core types. The internal packages carry the full API;
// these aliases are the stable public surface.
type (
	// Trace is a time-ordered packet trace.
	Trace = trace.Trace
	// Packet is one observed MAC-layer packet.
	Packet = trace.Packet
	// App identifies one of the paper's seven online activities.
	App = trace.App
	// Window is one eavesdropping window.
	Window = trace.Window
	// Scheduler maps packets to virtual interfaces.
	Scheduler = reshape.Scheduler
	// Confusion is a truth×prediction count matrix.
	Confusion = ml.Confusion
)

// The seven applications, in the paper's order.
const (
	Browsing    = trace.Browsing
	Chatting    = trace.Chatting
	Gaming      = trace.Gaming
	Downloading = trace.Downloading
	Uploading   = trace.Uploading
	Video       = trace.Video
	BitTorrent  = trace.BitTorrent
)

// Apps lists all seven applications.
var Apps = trace.Apps

// MTU is the maximum on-air packet size (1576 bytes in the paper's
// traces).
const MTU = defense.MTU

// Generate synthesizes a two-direction packet trace of one
// application, calibrated to the statistics the paper reports
// (Table I, Figure 1). The same seed regenerates the same trace.
func Generate(app App, duration time.Duration, seed uint64) *Trace {
	return appgen.Generate(app, duration, seed)
}

// GenerateAll synthesizes one trace per application.
func GenerateAll(duration time.Duration, seed uint64) map[App]*Trace {
	return appgen.GenerateAll(duration, seed)
}

// Strategy selects a reshaping algorithm.
type Strategy string

// Available strategies.
const (
	// StrategyOR is Orthogonal Reshaping over the paper's size
	// ranges — the recommended configuration (I = 3).
	StrategyOR Strategy = "or"
	// StrategyORMod is OR's modulo variant (Figure 5).
	StrategyORMod Strategy = "or-mod"
	// StrategyRandom assigns packets uniformly at random (RA).
	StrategyRandom Strategy = "random"
	// StrategyRoundRobin cycles interfaces per packet (RR).
	StrategyRoundRobin Strategy = "round-robin"
	// StrategyFH partitions by frequency-hopping time slot.
	StrategyFH Strategy = "fh"
	// StrategyAdaptive is OR with quantile-adapted size ranges
	// (§III-C3's dynamic parameter tuning).
	StrategyAdaptive Strategy = "adaptive"
)

// Reshaper partitions traffic over virtual interfaces.
type Reshaper struct {
	sched reshape.Scheduler
}

// Options tunes NewReshaper.
type Options struct {
	// Interfaces is the virtual interface count I (default 3).
	Interfaces int
	// Seed drives randomized strategies.
	Seed uint64
}

// NewReshaper builds a reshaper for the given strategy.
func NewReshaper(s Strategy, opt Options) (*Reshaper, error) {
	i := opt.Interfaces
	if i <= 0 {
		i = 3
	}
	switch s {
	case StrategyOR:
		ranges, err := reshape.SelectRanges(i)
		if err != nil {
			return nil, err
		}
		or, err := reshape.NewOrthogonal(ranges)
		if err != nil {
			return nil, err
		}
		return &Reshaper{sched: or}, nil
	case StrategyORMod:
		return &Reshaper{sched: reshape.NewModulo(i)}, nil
	case StrategyRandom:
		return &Reshaper{sched: reshape.NewRandom(i, opt.Seed)}, nil
	case StrategyRoundRobin:
		return &Reshaper{sched: reshape.NewRoundRobin(i)}, nil
	case StrategyFH:
		return &Reshaper{sched: reshape.PaperFH()}, nil
	case StrategyAdaptive:
		return &Reshaper{sched: reshape.NewAdaptive(i, 500)}, nil
	default:
		return nil, fmt.Errorf("trafficreshape: unknown strategy %q", s)
	}
}

// Scheduler exposes the underlying scheduler.
func (r *Reshaper) Scheduler() Scheduler { return r.sched }

// Interfaces returns the virtual interface count.
func (r *Reshaper) Interfaces() int { return r.sched.Interfaces() }

// Reshape partitions a trace into per-interface sub-flows. Packets
// are never modified — reshaping adds zero bytes of overhead.
func (r *Reshaper) Reshape(tr *Trace) []*Trace {
	return reshape.Apply(r.sched, tr)
}

// Adversary is a trained traffic-analysis attacker.
type Adversary struct {
	clf *attack.Classifier
}

// TrainAdversary trains the paper's classification system on labeled
// original traffic, selecting the best of SVM/MLP/kNN/NB on a
// held-out split.
func TrainAdversary(traces map[App]*Trace, w time.Duration, seed uint64) (*Adversary, error) {
	clf, err := attack.Train(traces, attack.TrainOptions{W: w, Seed: seed})
	if err != nil {
		return nil, err
	}
	return &Adversary{clf: clf}, nil
}

// Attack classifies every eavesdropping window of a single observed
// flow whose true application is known to the evaluator, returning
// the confusion matrix.
func (a *Adversary) Attack(tr *Trace, truth App, w time.Duration) *Confusion {
	return a.clf.AttackTrace(tr, truth, w)
}

// AttackFlows classifies sub-flows (e.g. the output of Reshape), all
// belonging to the given application.
func (a *Adversary) AttackFlows(flows []*Trace, truth App, w time.Duration) *Confusion {
	var conf Confusion
	for _, f := range flows {
		conf.Merge(a.clf.AttackTrace(f, truth, w))
	}
	return &conf
}

// PadToMTU applies the packet-padding baseline: every packet grows to
// the MTU. Returns the padded trace and its byte overhead on the
// dominant direction (the paper's Table VI metric).
func PadToMTU(tr *Trace) (*Trace, float64) {
	padded := defense.Pad(tr, defense.MTU)
	return padded, defense.DominantOverhead(tr, padded)
}

// MorphTraffic applies the traffic-morphing baseline: src's packet
// sizes are rewritten to imitate target's distribution (per
// direction, never shrinking). Returns the morphed trace and its
// dominant-direction overhead.
func MorphTraffic(src, target *Trace, seed uint64) (*Trace, float64, error) {
	model, err := defense.NewMorphModel(target)
	if err != nil {
		return nil, 0, err
	}
	morphed := src.Clone()
	model.Morpher(seed).ApplyInPlace(morphed)
	return morphed, defense.DominantOverhead(src, morphed), nil
}
