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
	"trafficreshape/internal/reshape"
	"trafficreshape/internal/stats"
	"trafficreshape/internal/trace"
)

func pct(x float64) string { return fmt.Sprintf("%.2f", x*100) }

// runTable1 reproduces Table I: per-application downlink mean packet
// size and mean interarrival time — original vs the three OR virtual
// interfaces.
func runTable1(_ *Dataset, cfg Config) (*Result, error) {
	var b strings.Builder
	header := []string{"App", "Feature", "Original", "i=1", "i=2", "i=3"}
	var rows [][]string
	metrics := make(map[string]float64)

	for _, app := range trace.Apps {
		tr := appgen.Generate(app, cfg.TestDuration, cfg.Seed+uint64(app))
		parts := reshape.Apply(reshape.Recommended(), tr)
		origDown, _ := tr.ByDirection()
		orig := origDown.Summarize(5 * time.Second)

		sizeRow := []string{app.Short(), "Avg. packet size", fmt.Sprintf("%.1f", orig.AvgSize)}
		gapRow := []string{app.Short(), "Interarrival time", fmt.Sprintf("%.4f", orig.AvgInterarrive)}
		metrics["orig_size/"+app.Short()] = orig.AvgSize
		metrics["orig_gap/"+app.Short()] = orig.AvgInterarrive
		for i, p := range parts {
			down, _ := p.ByDirection()
			s := down.Summarize(5 * time.Second)
			sizeRow = append(sizeRow, fmt.Sprintf("%.1f", s.AvgSize))
			gapRow = append(gapRow, fmt.Sprintf("%.4f", s.AvgInterarrive))
			metrics[fmt.Sprintf("or_size/%s/i%d", app.Short(), i+1)] = s.AvgSize
			metrics[fmt.Sprintf("or_gap/%s/i%d", app.Short(), i+1)] = s.AvgInterarrive
		}
		rows = append(rows, sizeRow, gapRow)
	}
	if err := plot.Table(&b, header, rows); err != nil {
		return nil, err
	}
	return &Result{
		Name:    "Table I — features on virtual interfaces (AP→user)",
		Text:    b.String(),
		Metrics: metrics,
	}, nil
}

// accuracyTable runs the Tables II/III layout: per-app accuracy for
// each scheme plus the mean row. The whole (scheme × app) grid is
// handed to the dataset's engine in one call, so all 35 cells shard
// across the worker pool.
func accuracyTable(ds *Dataset, title string) (*Result, error) {
	schemes := StandardSchemes()
	confusions := ds.engine().EvalSchemes(ds, schemes)
	header := []string{"App"}
	for _, s := range schemes {
		header = append(header, s.Name+" (%)")
	}
	var rows [][]string
	metrics := make(map[string]float64)
	for _, app := range trace.Apps {
		row := []string{app.Short()}
		for i, s := range schemes {
			acc, ok := confusions[i].Accuracy(app)
			cell := "–"
			if ok {
				cell = pct(acc)
			}
			row = append(row, cell)
			metrics[fmt.Sprintf("acc/%s/%s", s.Name, app.Short())] = acc
		}
		rows = append(rows, row)
	}
	meanRow := []string{"Mean"}
	for i, s := range schemes {
		m := confusions[i].MeanAccuracy()
		meanRow = append(meanRow, pct(m))
		metrics["mean/"+s.Name] = m
	}
	rows = append(rows, meanRow)

	var b strings.Builder
	if err := plot.Table(&b, header, rows); err != nil {
		return nil, err
	}
	return &Result{Name: title, Text: b.String(), Metrics: metrics}, nil
}

// runTable2 reproduces Table II (accuracy, W = 5 s).
func runTable2(ds *Dataset, cfg Config) (*Result, error) {
	ds, err := datasetForW(ds, cfg, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return accuracyTable(ds, "Table II — accuracy of classification (W = 5 s)")
}

// runTable3 reproduces Table III (accuracy, W = 60 s).
func runTable3(ds *Dataset, cfg Config) (*Result, error) {
	ds, err := datasetForW(ds, cfg, 60*time.Second)
	if err != nil {
		return nil, err
	}
	return accuracyTable(ds, "Table III — accuracy of classification (W = 60 s)")
}

// datasetForW reuses ds when its window matches, otherwise builds a
// new dataset at the requested window with proportionally scaled
// durations. Derived builds go through the dataset's engine and are
// deduplicated per window, so experiments running concurrently under
// RunAll share one W = 60 s build instead of racing two.
func datasetForW(ds *Dataset, cfg Config, w time.Duration) (*Dataset, error) {
	if ds != nil && ds.Cfg.W == w {
		return ds, nil
	}
	scaled := cfg
	scaled.W = w
	if w > cfg.W {
		factor := int64(w / cfg.W)
		scaled.TrainDuration = cfg.TrainDuration * time.Duration(factor) / 2
		scaled.TestDuration = cfg.TestDuration * time.Duration(factor) / 2
	}
	// A derived dataset keeps its parent's captured source: the
	// re-windowed build reuses the same captured traces (scaled
	// durations only size the synthetic slots), so captured cells stay
	// captured at every window — and stay wire-addressable, because
	// the derived dataset carries the same digests.
	var src *TraceSet
	var srcKey string
	if ds != nil && ds.src != nil {
		src = ds.src
		srcKey = ds.srcRef.Key()
	}
	build := func() (*Dataset, error) {
		derived, err := ds.engine().BuildDatasetFrom(scaled, src)
		// A run's derived datasets share its cell memo scope: each
		// gets a memo of its own when its parent has one.
		if err == nil && ds != nil && ds.cells != nil {
			derived.cells = newCellMemo()
		}
		return derived, err
	}
	if ds != nil && ds.cache != nil {
		derived, err := ds.cache.get(datasetCacheKey{cfg: scaled, src: srcKey}, build)
		if err != nil {
			return nil, err
		}
		// Re-bind engine affinity to the requester: the cache entry
		// keeps whichever engine built it first, but evaluations
		// against it must shard (or not) like the dataset the runner
		// was handed. The heavy contents stay shared.
		if derived.eng != ds.eng {
			rebound := *derived
			rebound.eng = ds.eng
			return &rebound, nil
		}
		return derived, nil
	}
	return build()
}

// runTable4 reproduces Table IV: per-application false positives,
// original vs OR, at W = 5 s and W = 60 s.
func runTable4(ds *Dataset, cfg Config) (*Result, error) {
	ds5, err := datasetForW(ds, cfg, 5*time.Second)
	if err != nil {
		return nil, err
	}
	ds60, err := datasetForW(ds, cfg, 60*time.Second)
	if err != nil {
		return nil, err
	}
	conf5o := EvalScheme(ds5, mustNamed(ds5, "Original"))
	conf5r := EvalScheme(ds5, mustNamed(ds5, "OR"))
	conf60o := EvalScheme(ds60, mustNamed(ds60, "Original"))
	conf60r := EvalScheme(ds60, mustNamed(ds60, "OR"))

	header := []string{"App", "W=5s Orig (%)", "W=5s OR (%)", "W=60s Orig (%)", "W=60s OR (%)"}
	var rows [][]string
	metrics := make(map[string]float64)
	for _, app := range trace.Apps {
		row := []string{app.Short(),
			pct(conf5o.FalsePositive(app)), pct(conf5r.FalsePositive(app)),
			pct(conf60o.FalsePositive(app)), pct(conf60r.FalsePositive(app)),
		}
		rows = append(rows, row)
		metrics["fp5/orig/"+app.Short()] = conf5o.FalsePositive(app)
		metrics["fp5/or/"+app.Short()] = conf5r.FalsePositive(app)
		metrics["fp60/orig/"+app.Short()] = conf60o.FalsePositive(app)
		metrics["fp60/or/"+app.Short()] = conf60r.FalsePositive(app)
	}
	rows = append(rows, []string{"Mean",
		pct(conf5o.MeanFalsePositive()), pct(conf5r.MeanFalsePositive()),
		pct(conf60o.MeanFalsePositive()), pct(conf60r.MeanFalsePositive()),
	})
	metrics["fp5/orig/mean"] = conf5o.MeanFalsePositive()
	metrics["fp5/or/mean"] = conf5r.MeanFalsePositive()
	metrics["fp60/orig/mean"] = conf60o.MeanFalsePositive()
	metrics["fp60/or/mean"] = conf60r.MeanFalsePositive()

	var b strings.Builder
	if err := plot.Table(&b, header, rows); err != nil {
		return nil, err
	}
	return &Result{Name: "Table IV — FP of classification", Text: b.String(), Metrics: metrics}, nil
}

// runTable5 reproduces Table V: OR accuracy as the interface count I
// sweeps over {2, 3, 5}, with the paper's per-I size ranges.
func runTable5(ds *Dataset, cfg Config) (*Result, error) {
	ds, err := datasetForW(ds, cfg, 5*time.Second)
	if err != nil {
		return nil, err
	}
	is := []int{2, 3, 5}
	confs := make([]*ml.Confusion, len(is))
	for idx, i := range is {
		confs[idx] = EvalScheme(ds, mustNamed(ds, fmt.Sprintf("OR-I%d", i)))
	}
	header := []string{"App", "I=2 (%)", "I=3 (%)", "I=5 (%)"}
	var rows [][]string
	metrics := make(map[string]float64)
	for _, app := range trace.Apps {
		row := []string{app.Short()}
		for idx, i := range is {
			acc, ok := confs[idx].Accuracy(app)
			cell := "–"
			if ok {
				cell = pct(acc)
			}
			row = append(row, cell)
			metrics[fmt.Sprintf("acc/I%d/%s", i, app.Short())] = acc
		}
		rows = append(rows, row)
	}
	meanRow := []string{"Mean"}
	for idx, i := range is {
		m := confs[idx].MeanAccuracy()
		meanRow = append(meanRow, pct(m))
		metrics[fmt.Sprintf("mean/I%d", i)] = m
	}
	rows = append(rows, meanRow)

	var b strings.Builder
	if err := plot.Table(&b, header, rows); err != nil {
		return nil, err
	}
	return &Result{Name: "Table V — accuracy by number of virtual interfaces", Text: b.String(), Metrics: metrics}, nil
}

// runTable6 reproduces Table VI: the efficiency comparison. Padding
// and morphing are attacked with the timing-only classifier (§IV-D:
// both defenses only change sizes, so the timing attack sees through
// them identically); their per-application byte overheads are
// measured on the dominant direction.
func runTable6(ds *Dataset, cfg Config) (*Result, error) {
	w := 5 * time.Second
	// Timing-only adversary, trained on original synthetic traffic:
	// the dataset's own when it is exactly that traffic.
	train, err := trainingSet(ds, cfg, w)
	if err != nil {
		return nil, err
	}
	clf, err := train.Fit(attack.TrainOptions{Seed: cfg.Seed ^ 0x7a11, TimingOnly: true})
	if err != nil {
		return nil, err
	}
	var test map[trace.App]*trace.Trace
	if ownTraffic(ds, cfg, w) {
		test = ds.Test
	} else {
		test = appgen.GenerateAll(cfg.TestDuration, cfg.Seed^0x5eed)
	}

	padded := make(map[trace.App]*trace.Trace, len(test))
	for app, tr := range test {
		padded[app] = defense.Pad(tr, defense.MTU)
	}
	morphed, err := defense.MorphAll(test, cfg.Seed^0x304ffed)
	if err != nil {
		return nil, err
	}

	var conf ml.Confusion
	r := stats.NewRNG(cfg.Seed ^ 0xfeed)
	for _, app := range trace.Apps {
		addr := mac.RandomAddress(r)
		flows := map[mac.Address]*trace.Trace{addr: padded[app]}
		truth := map[mac.Address]trace.App{addr: app}
		conf.Merge(clf.AttackFlows(flows, truth, w))
	}

	header := []string{"App", "Accuracy (%)", "Pad overhead (%)", "Morph overhead (%)"}
	var rows [][]string
	metrics := make(map[string]float64)
	for _, app := range trace.Apps {
		acc, _ := conf.Accuracy(app)
		padOv := defense.DominantOverhead(test[app], padded[app])
		morOv := defense.DominantOverhead(test[app], morphed[app])
		rows = append(rows, []string{app.Short(), pct(acc), pct(padOv), pct(morOv)})
		metrics["acc/"+app.Short()] = acc
		metrics["pad_overhead/"+app.Short()] = padOv
		metrics["morph_overhead/"+app.Short()] = morOv
	}
	meanAcc := conf.MeanAccuracy()
	var padSum, morSum float64
	for _, app := range trace.Apps {
		padSum += metrics["pad_overhead/"+app.Short()]
		morSum += metrics["morph_overhead/"+app.Short()]
	}
	padMean := padSum / float64(trace.NumApps)
	morMean := morSum / float64(trace.NumApps)
	rows = append(rows, []string{"Mean", pct(meanAcc), pct(padMean), pct(morMean)})
	metrics["mean/acc"] = meanAcc
	metrics["mean/pad_overhead"] = padMean
	metrics["mean/morph_overhead"] = morMean
	// Reshaping's overhead is identically zero: no bytes are added.
	metrics["mean/reshape_overhead"] = 0

	var b strings.Builder
	if err := plot.Table(&b, header, rows); err != nil {
		return nil, err
	}
	fmt.Fprintf(&b, "\n(timing attack; padding and morphing have identical accuracy because\nonly sizes change — reshaping overhead is 0%% by construction)\n")
	return &Result{Name: "Table VI — efficiency comparison (W = 5 s)", Text: b.String(), Metrics: metrics}, nil
}
