package experiments

import (
	"fmt"
	"strings"
	"time"

	"trafficreshape/internal/appgen"
	"trafficreshape/internal/attack"
	"trafficreshape/internal/defense"
	"trafficreshape/internal/mac"
	"trafficreshape/internal/ml"
	"trafficreshape/internal/plot"
	"trafficreshape/internal/trace"
)

// appgenAll regenerates cfg's synthetic training traffic (the seed a
// dataset build uses). Runners call it only when the dataset they were
// handed holds other traffic (see ownTraffic).
func appgenAll(cfg Config) map[trace.App]*trace.Trace {
	return appgen.GenerateAll(cfg.TrainDuration, cfg.Seed)
}

// ownTraffic reports whether ds was built from exactly the synthetic
// traffic cfg generates, windowed at w: then its training set and test
// traces are what a runner regenerating cfg's traffic would make, and
// it may use them instead. A dataset built from captured traffic never
// qualifies, so its Table VI is still trained on synthetic traffic.
func ownTraffic(ds *Dataset, cfg Config, w time.Duration) bool {
	want := cfg
	want.W = w
	return ds != nil && ds.src == nil && ds.train != nil && ds.Cfg == want
}

// trainingSet returns cfg's synthetic training traffic prepared at
// window w: the dataset's own set when ownTraffic allows, else
// regenerated.
func trainingSet(ds *Dataset, cfg Config, w time.Duration) (*attack.TrainingSet, error) {
	if ownTraffic(ds, cfg, w) {
		return ds.train, nil
	}
	return attack.PrepareTraining(appgenAll(cfg), w)
}

// runSplitting reproduces the closing sentence of §V-C: "if we allow
// splitting packets of downloading and uploading into multiple smaller
// packets, the accuracy will be reduced even more, but it will
// sacrifice the network performance." OR is combined with fragmenting
// every packet above 500 bytes; the extra packets and header bytes are
// the performance cost.
func runSplitting(ds *Dataset, cfg Config) (*Result, error) {
	ds, err := datasetForW(ds, cfg, 5*time.Second)
	if err != nil {
		return nil, err
	}
	confOR := EvalScheme(ds, mustNamed(ds, "OR"))
	confSplit := EvalScheme(ds, mustNamed(ds, "OR+split"))

	// Performance cost: packet-count inflation and byte overhead on
	// the bulk applications.
	var pktInflation, byteOverhead float64
	for _, app := range []trace.App{trace.Downloading, trace.Uploading} {
		orig := ds.Test[app]
		frag := defense.Split(orig, splitAt, headerBytes)
		pktInflation += float64(frag.Len()) / float64(orig.Len())
		byteOverhead += defense.Overhead(orig, frag)
	}
	pktInflation /= 2
	byteOverhead /= 2

	var b strings.Builder
	fmt.Fprintf(&b, "OR alone:          mean accuracy %.2f%%\n", confOR.MeanAccuracy()*100)
	fmt.Fprintf(&b, "OR + split@%dB:    mean accuracy %.2f%%\n", splitAt, confSplit.MeanAccuracy()*100)
	for _, app := range trace.Apps {
		a1, _ := confOR.Accuracy(app)
		a2, _ := confSplit.Accuracy(app)
		fmt.Fprintf(&b, "  %-4s OR %6.2f%% → split %6.2f%%\n", app.Short(), a1*100, a2*100)
	}
	fmt.Fprintf(&b, "performance cost on do./up.: %.2fx packets, %.1f%% extra bytes\n",
		pktInflation, byteOverhead*100)

	metrics := map[string]float64{
		"mean/or":        confOR.MeanAccuracy(),
		"mean/split":     confSplit.MeanAccuracy(),
		"pkt_inflation":  pktInflation,
		"byte_overhead":  byteOverhead,
		"acc/split/do.":  accOrZero(confSplit, trace.Downloading),
		"acc/split/up.":  accOrZero(confSplit, trace.Uploading),
		"acc/split/mean": confSplit.MeanAccuracy(),
	}
	return &Result{Name: "§V-C — OR with packet splitting", Text: b.String(), Metrics: metrics}, nil
}

func accOrZero(c *ml.Confusion, app trace.App) float64 {
	a, _ := c.Accuracy(app)
	return a
}

// runAttackerAblation measures per-family attack strength against
// original and OR-reshaped traffic, including the decision tree that
// the headline tables exclude. On this noise-free synthetic workload
// a single tree often classifies on interarrival features alone and
// therefore partially survives size reshaping — a reminder (which the
// paper itself makes in §IV-D for padding) that timing features leak
// independently of sizes.
func runAttackerAblation(ds *Dataset, cfg Config) (*Result, error) {
	ds, err := datasetForW(ds, cfg, 5*time.Second)
	if err != nil {
		return nil, err
	}
	// Train the extra family on cfg's synthetic training traffic: the
	// data a synthetic dataset's families were trained on.
	train, err := trainingSet(ds, cfg, ds.Cfg.W)
	if err != nil {
		return nil, err
	}
	treeClf, err := train.Fit(attack.TrainOptions{Seed: cfg.Seed ^ 0xbeef, Trainer: &ml.TreeTrainer{}})
	if err != nil {
		return nil, err
	}
	families := append(append([]*attack.Classifier(nil), ds.Classifiers...), treeClf)

	origFlows, origTruth := schemeFlows(ds, mustNamed(ds, "Original"))
	orFlows, orTruth := schemeFlows(ds, mustNamed(ds, "OR"))
	// Window + extract each flow set once; every family attacks the
	// identical vectors (see evalCell).
	origFW := attack.WindowFlows(origFlows, origTruth, ds.Cfg.W)
	orFW := attack.WindowFlows(orFlows, orTruth, ds.Cfg.W)

	header := []string{"Family", "Original mean (%)", "OR mean (%)"}
	var rows [][]string
	metrics := make(map[string]float64)
	for _, clf := range families {
		name := clf.Model.Name()
		orig := clf.AttackWindowed(origFW).MeanAccuracy()
		or := clf.AttackWindowed(orFW).MeanAccuracy()
		rows = append(rows, []string{name, pct(orig), pct(or)})
		metrics["orig/"+name] = orig
		metrics["or/"+name] = or
	}
	var b strings.Builder
	if err := plot.Table(&b, header, rows); err != nil {
		return nil, err
	}
	fmt.Fprintf(&b, "\na gap-keyed tree retains accuracy under size reshaping on clean\n")
	fmt.Fprintf(&b, "synthetic traffic; combining OR with morphing or splitting (§V-C)\n")
	fmt.Fprintf(&b, "addresses the residual timing channel.\n")
	return &Result{Name: "Ablation — attacker families vs reshaping", Text: b.String(), Metrics: metrics}, nil
}

// schemeFlows materializes the observed flows of a scheme once, so
// several classifiers can attack the identical observation. It is the
// union of the engine's per-app cells, so the flows match what
// EvalScheme attacks cell by cell. Every cell partitions into its own
// fresh scratch, because the flows outlive the loop.
func schemeFlows(ds *Dataset, s Scheme) (map[mac.Address]*trace.Trace, map[mac.Address]trace.App) {
	flows := make(map[mac.Address]*trace.Trace)
	truth := make(map[mac.Address]trace.App)
	for _, app := range trace.Apps {
		f, tr := cellFlows(new(cellScratch), ds, s, app)
		for addr, p := range f {
			flows[addr] = p
			truth[addr] = tr[addr]
		}
	}
	return flows, truth
}

// runPolicyAblation quantifies §III-C2's remark that "different
// scheduling policies may give different traffic reshaping results":
// the same attack sweeps OR variants — the paper's observation-driven
// ranges, naive equal thirds, and the modulo hash — plus interface
// counts, reporting the residual accuracy of each design point.
func runPolicyAblation(ds *Dataset, cfg Config) (*Result, error) {
	ds, err := datasetForW(ds, cfg, 5*time.Second)
	if err != nil {
		return nil, err
	}
	header := []string{"Policy", "Mean acc (%)", "br (%)", "do (%)", "vo (%)"}
	var rows [][]string
	metrics := make(map[string]float64)
	for i, name := range policyPoints {
		conf := EvalScheme(ds, mustNamed(ds, name))
		br := accOrZero(conf, trace.Browsing)
		do := accOrZero(conf, trace.Downloading)
		vo := accOrZero(conf, trace.Video)
		rows = append(rows, []string{
			name, pct(conf.MeanAccuracy()), pct(br), pct(do), pct(vo),
		})
		key := fmt.Sprintf("mean/p%d", i)
		metrics[key] = conf.MeanAccuracy()
	}
	var b strings.Builder
	if err := plot.Table(&b, header, rows); err != nil {
		return nil, err
	}
	fmt.Fprintf(&b, "\nthe modulo hash spreads every size mode over all interfaces, so each\n")
	fmt.Fprintf(&b, "sub-flow keeps the original's mean size — better at hiding that\n")
	fmt.Fprintf(&b, "reshaping is in use (§III-C2), weaker at hiding the activity.\n")
	return &Result{Name: "Ablation — scheduling policy design points", Text: b.String(), Metrics: metrics}, nil
}
