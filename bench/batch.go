package main

// The batch workloads: the researcher's "regenerate the paper" job and
// the evaluation grid, in process and through a worker fleet.

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"time"

	"trafficreshape/internal/appgen"
	"trafficreshape/internal/attack"
	"trafficreshape/internal/experiments"
	"trafficreshape/internal/features"
	"trafficreshape/internal/mac"
	"trafficreshape/internal/ml"
	"trafficreshape/internal/stats"
	"trafficreshape/internal/trace"
)

// datasetConfig is the grid and fleet dataset: the quick W = 5 s
// configuration under the run's seed.
func datasetConfig(seed uint64) experiments.Config {
	cfg := experiments.QuickConfig(5 * time.Second)
	cfg.Seed = seed
	return cfg
}

// allSchemes returns every registered scheme, in name order.
func allSchemes(ds *experiments.Dataset) ([]experiments.Scheme, error) {
	names := experiments.SchemeNames()
	sort.Strings(names)
	out := make([]experiments.Scheme, len(names))
	for i, n := range names {
		s, err := experiments.NamedScheme(ds, n)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// referenceGrid is the grid's expected output: the serial engine over a
// dataset built from the reference seed.
func referenceGrid(r *run, ds *experiments.Dataset) ([]*ml.Confusion, error) {
	if r.refSkew != 0 {
		var err error
		if ds, err = experiments.NewEngine(r.nproc).BuildDataset(datasetConfig(r.refSeed(ds.Cfg.Seed))); err != nil {
			return nil, err
		}
	}
	schemes, err := allSchemes(ds)
	if err != nil {
		return nil, err
	}
	return experiments.NewEngine(1).EvalSchemes(ds, schemes), nil
}

// --- paper-quick ---------------------------------------------------------

func paperQuick(r *run) error {
	cfg := experiments.QuickConfig(5 * time.Second)
	eng := experiments.NewEngine(r.nproc)
	// The smoke op is one experiment; the full op regenerates the paper.
	job := func(e *experiments.Engine, c experiments.Config) ([]byte, error) {
		var buf bytes.Buffer
		if r.smoke {
			res, err := e.Run("table2", c)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(&buf, "==== %s ====\n%s\n", res.Name, res.Text)
			return buf.Bytes(), nil
		}
		_, err := e.RunAll(&buf, true)
		return buf.Bytes(), err
	}
	if err := r.setup(func(int) error {
		_, err := eng.Run("table2", cfg)
		return err
	}); err != nil {
		return err
	}
	var ref []byte
	op := func(i int, traced bool) (float64, func()) {
		var out []byte
		var err error
		call := func(int) { out, err = job(eng, cfg) }
		if traced {
			r.tr.do("experiments.RunAll", -1, i, call)
		} else {
			call(0)
		}
		return 1, func() {
			switch {
			case err != nil:
				r.fail(1, "run %d: %v", i, err)
			case !bytes.Equal(out, ref):
				r.fail(1, "run %d: output differs from the serial engine's", i)
			}
		}
	}
	r.measurePlain(func(i int) (float64, func()) { return op(i, false) })
	refCfg := cfg
	refCfg.Seed = r.refSeed(cfg.Seed)
	ref, err := job(experiments.NewEngine(1), refCfg) // RunAll ignores the config: QuickConfig fixes it
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	r.runChecks()
	if !r.traced {
		return nil
	}
	r.measureTraced(func(i int) (float64, func()) { return op(i, true) })
	r.runChecks()
	// Decomposition: the dataset build and every runner, serially,
	// with the arguments RunAll gives them.
	ds, err := replayBuild(r, cfg)
	if err != nil {
		return err
	}
	var replay bytes.Buffer
	for _, runner := range experiments.Registry() {
		if r.smoke && runner.Name != "table2" {
			continue
		}
		var res *experiments.Result
		r.tr.do("experiments.Runner."+runner.Name, -1, 0, func(int) { res, err = runner.Run(ds, cfg) })
		if err != nil {
			return fmt.Errorf("replaying %s: %w", runner.Name, err)
		}
		fmt.Fprintf(&replay, "==== %s ====\n%s\n", res.Name, res.Text)
	}
	if !bytes.Equal(replay.Bytes(), ref) {
		r.fail(1, "the serial runner replay differs from the reference output")
	}
	tot := r.tr.totals()
	for _, runner := range experiments.Registry() {
		r.layer["experiments.runner_ms."+runner.Name] = meanSpan(tot, "experiments.Runner."+runner.Name, time.Millisecond)
	}
	buildLayers(r, tot)
	return nil
}

// replayBuild builds the dataset for cfg on the serial engine, then
// repeats the calls BuildDataset makes — Generate per application for
// training and test traffic, Train per classifier family — each in its
// own span. It returns the serially built dataset.
func replayBuild(r *run, cfg experiments.Config) (*experiments.Dataset, error) {
	var ds *experiments.Dataset
	var err error
	r.tr.do("experiments.BuildDataset", -1, 0, func(int) { ds, err = experiments.NewEngine(1).BuildDataset(cfg) })
	if err != nil {
		return nil, err
	}
	root := r.tr.begin("experiments.BuildDataset.replay", -1, 0)
	gen := func(d time.Duration, seed uint64) map[trace.App]*trace.Trace {
		out := make(map[trace.App]*trace.Trace, trace.NumApps)
		for _, app := range trace.Apps {
			r.tr.do("appgen.Generate", root, int(app), func(int) { out[app] = appgen.Generate(app, d, appgen.AppSeed(seed, app)) })
			r.counts["appgen.packets"] += float64(out[app].Len())
		}
		return out
	}
	train := gen(cfg.TrainDuration, cfg.Seed)
	for _, t := range ml.Trainers() {
		r.tr.do("attack.Train."+t.Name(), root, 0, func(int) {
			_, err = attack.Train(train, attack.TrainOptions{W: cfg.W, Seed: cfg.Seed ^ 0xbeef, Trainer: t})
		})
		if err != nil {
			return nil, err
		}
	}
	gen(cfg.TestDuration, cfg.Seed^0x5eed)
	r.tr.end(root)
	for _, app := range trace.Apps {
		r.counts["attack.train_examples"] += float64(len(features.AppendWindowsOf(nil, train[app], cfg.W, false)))
	}
	r.counts["input_builds"]++
	return ds, nil
}

// buildLayers reports the input-building layers from the spans of
// every input build in the run.
func buildLayers(r *run, tot map[string]*layerTotals) {
	builds := r.counts["input_builds"]
	if lt := tot["appgen.Generate"]; lt != nil {
		r.layer["appgen.generate_ms"] = ratio(lt.cpu.Seconds()*1e3, builds)
	}
	r.layer["appgen.packets"] = ratio(r.counts["appgen.packets"], builds)
	for _, t := range ml.Trainers() {
		r.layer["attack.train_ms."+t.Name()] = meanSpan(tot, "attack.Train."+t.Name(), time.Millisecond)
	}
	r.layer["attack.train_examples"] = ratio(r.counts["attack.train_examples"], builds)
	r.layer["experiments.build_dataset_ms"] = meanSpan(tot, "experiments.BuildDataset", time.Millisecond)
}

// --- grid-local ----------------------------------------------------------

// gridSetup builds the workload's dataset and scheme list.
func gridSetup(r *run, eng *experiments.Engine) (*experiments.Dataset, []experiments.Scheme, error) {
	ds, err := eng.BuildDataset(datasetConfig(r.seed))
	if err != nil {
		return nil, nil, err
	}
	schemes, err := allSchemes(ds)
	return ds, schemes, err
}

func gridLocal(r *run) error {
	eng := experiments.NewEngine(r.nproc)
	var ds *experiments.Dataset
	var schemes []experiments.Scheme
	if err := r.setup(func(int) error {
		var err error
		if ds, schemes, err = gridSetup(r, eng); err != nil {
			return err
		}
		eng.EvalSchemes(ds, schemes) // warm-up
		return nil
	}); err != nil {
		return err
	}
	cells := float64(len(schemes) * trace.NumApps)
	var ref []*ml.Confusion
	op := func(i int, traced bool) (float64, func()) {
		var got []*ml.Confusion
		call := func(int) { got = eng.EvalSchemes(ds, schemes) }
		if traced {
			r.tr.do("experiments.EvalSchemes", -1, i, call)
		} else {
			call(0)
		}
		return cells, func() {
			if !reflect.DeepEqual(got, ref) {
				r.fail(int64(cells), "grid %d differs from the serial engine's", i)
			}
			if traced {
				decomposeGrid(r, ds, schemes, ref, i)
			}
		}
	}
	r.measurePlain(func(i int) (float64, func()) { return op(i, false) })
	ref, err := referenceGrid(r, ds)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	r.runChecks()
	if !r.traced {
		return nil
	}
	r.measureTraced(func(i int) (float64, func()) { return op(i, true) })
	r.runChecks()
	if _, err := replayBuild(r, datasetConfig(r.seed)); err != nil {
		return err
	}
	tot := r.tr.totals()
	buildLayers(r, tot)
	gridLayers(r, tot)
	return nil
}

// cellRNG mirrors the engine's per-cell stream derivation (FNV-1a of
// the scheme name folded into the master seed, split by application),
// so the replay hands Partition exactly the stream EvalCell does. The
// replay's output is checked against the reference, which catches any
// drift from the engine.
func cellRNG(seed uint64, scheme string, app trace.App) *stats.RNG {
	h := uint64(14695981039346656037)
	for i := 0; i < len(scheme); i++ {
		h ^= uint64(scheme[i])
		h *= 1099511628211
	}
	return stats.NewRNG(seed ^ 0xface ^ h).SplitAt(uint64(app))
}

// partitionSpan names the layer a scheme's Partition belongs to: the
// two schemes that add a defense transform on top of reshaping are
// charged to the defense layer.
func partitionSpan(scheme string) string {
	switch scheme {
	case "OR+morph":
		return "defense.Partition.or_morph"
	case "OR+split":
		return "defense.Partition.or_split"
	}
	return "reshape.Partition"
}

// decomposeGrid times the serial engine on one grid, then replays the
// grid call by call — per cell: Partition, address minting,
// WindowFlows, AttackWindowed per family; then the merge — and checks
// both against the reference.
// The two run in alternating order from grid to grid, so neither is
// always the one that inherits the other's garbage.
func decomposeGrid(r *run, ds *experiments.Dataset, schemes []experiments.Scheme, ref []*ml.Confusion, req int) {
	var serial []*ml.Confusion
	runSerial := func() {
		r.tr.do("experiments.EvalSchemes.serial", -1, req, func(int) { serial = experiments.NewEngine(1).EvalSchemes(ds, schemes) })
	}
	if req%2 == 0 {
		runSerial()
	}

	apps := trace.Apps
	fams := len(ds.Classifiers)
	root := r.tr.begin("experiments.EvalSchemes.replay", -1, req)
	cells := make([][]*ml.Confusion, len(schemes)*len(apps))
	for si, s := range schemes {
		for ai, app := range apps {
			c := r.tr.begin("experiments.EvalCell", root, req)
			rng := cellRNG(ds.Cfg.Seed, s.Name, app)
			addrRNG := rng.SplitAt(0)
			var parts []*trace.Trace
			r.tr.do(partitionSpan(s.Name), c, req, func(int) { parts = s.Partition(app, ds.Test[app], rng.SplitAt(1)) })
			flows := make(map[mac.Address]*trace.Trace, len(parts))
			truth := make(map[mac.Address]trace.App, len(parts))
			for _, p := range parts {
				addr := mac.RandomAddress(addrRNG)
				flows[addr] = p
				truth[addr] = app
				r.counts["cell.packets"] += float64(p.Len())
			}
			var fw *attack.FlowWindows
			r.tr.do("attack.WindowFlows", c, req, func(int) { fw = attack.WindowFlows(flows, truth, ds.Cfg.W) })
			r.counts["cell.windows"] += float64(len(fw.X))
			out := make([]*ml.Confusion, fams)
			for fi, clf := range ds.Classifiers {
				r.tr.do("ml.AttackWindowed."+clf.Model.Name(), c, req, func(int) { out[fi] = clf.AttackWindowed(fw) })
			}
			r.counts["cell.predictions"] += float64(len(fw.X) * fams)
			cells[si*len(apps)+ai] = out
			r.tr.end(c)
			r.counts["cells"]++
		}
	}
	var merged []*ml.Confusion
	r.tr.do("experiments.merge", root, req, func(int) { merged = mergeGrid(cells, len(schemes), fams) })
	r.tr.end(root)
	if req%2 == 1 {
		runSerial()
	}
	if !reflect.DeepEqual(serial, ref) || !reflect.DeepEqual(merged, ref) {
		r.fail(int64(len(cells)), "grid %d: the serial replay differs from the reference", req)
	}
}

// mergeGrid is EvalSchemes' reduction: per scheme, sum each family's
// confusions over applications and keep the family with the highest
// mean accuracy (first wins ties).
func mergeGrid(cells [][]*ml.Confusion, schemes, fams int) []*ml.Confusion {
	apps := trace.NumApps
	out := make([]*ml.Confusion, schemes)
	for si := 0; si < schemes; si++ {
		var best *ml.Confusion
		for fi := 0; fi < fams; fi++ {
			conf := &ml.Confusion{}
			for ai := 0; ai < apps; ai++ {
				conf.Merge(cells[si*apps+ai][fi])
			}
			if best == nil || conf.MeanAccuracy() > best.MeanAccuracy() {
				best = conf
			}
		}
		out[si] = best
	}
	return out
}

// gridLayers reports the evaluation layers from the grid spans.
func gridLayers(r *run, tot map[string]*layerTotals) {
	cells := r.counts["cells"]
	r.layer["experiments.eval_schemes_ms"] = meanSpan(tot, "experiments.EvalSchemes", time.Millisecond)
	r.layer["experiments.cell_us"] = meanSpan(tot, "experiments.EvalCell", time.Microsecond)
	if lt := tot["experiments.EvalCell"]; lt != nil {
		r.layer["experiments.cell_self_us"] = ratio(float64(lt.self)/1e3, float64(lt.count))
	}
	r.layer["experiments.merge_us_per_grid"] = meanSpan(tot, "experiments.merge", time.Microsecond)
	if rep, ser := tot["experiments.EvalSchemes.replay"], tot["experiments.EvalSchemes.serial"]; rep != nil && ser != nil {
		r.layer["experiments.decomp_coverage_pct"] = 100 * ratio(float64(rep.cpu), float64(ser.cpu))
	}
	r.layer["reshape.partition_us_per_cell"] = meanSpan(tot, "reshape.Partition", time.Microsecond)
	r.layer["reshape.packets_per_cell"] = ratio(r.counts["cell.packets"], cells)
	r.layer["defense.partition_us_per_cell.or_morph"] = meanSpan(tot, "defense.Partition.or_morph", time.Microsecond)
	r.layer["defense.partition_us_per_cell.or_split"] = meanSpan(tot, "defense.Partition.or_split", time.Microsecond)
	r.layer["features.window_extract_us_per_cell"] = meanSpan(tot, "attack.WindowFlows", time.Microsecond)
	r.layer["features.windows_per_cell"] = ratio(r.counts["cell.windows"], cells)
	for _, t := range ml.Trainers() {
		r.layer["ml.predict_us_per_cell."+t.Name()] = meanSpan(tot, "ml.AttackWindowed."+t.Name(), time.Microsecond)
	}
	r.layer["ml.predictions_per_cell"] = ratio(r.counts["cell.predictions"], cells)
}
