// Command bench is the repository benchmark: five workloads over the
// batch evaluation engine, the worker fleet and the streaming daemon,
// each measured end to end against process CPU time, with every output
// checked against a reference, and an optional traced run that times
// the calls into each layer from outside.
//
// Run one workload (this is what BENCHMARK.json's command does):
//
//	bash bench/run.sh --workload grid-local --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is a JSON object with the keys
// correct, attempted, failed and metrics. With no -workload every
// workload runs, each in a child process of this binary:
//
//	bash bench/run.sh -seed 1 -out base.json
//	bash bench/run.sh -compare base.json head.json
//
// See bench/README.md for the workloads, metrics and bounds.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
)

// workload is one set of inputs and the op run on them.
type workload struct {
	name, why string
	run       func(*run) error
}

var workloads = []workload{
	{"paper-quick", "regenerates every table and figure (RunAll -quick): generation- and training-heavy, where dataset builds and trainers show", paperQuick},
	{"grid-local", "105-cell evaluation grids on the in-process pool: reshape, windowing and prediction only, the dist layer idle", gridLocal},
	{"fleet-cold", "the same grids through a coordinator and two loopback workers with cold result caches: dispatch, scheduling, wire, remote evaluation", fleetCold},
	{"daemon-inline", "the streaming engine inline, one Ingest per packet: the closed-loop per-packet decision path with the self-audit", daemonInline},
	{"daemon-sharded", "the streaming engine on shard goroutines with a checkpoint every 50000 packets: handoff, queues and barriers", daemonSharded},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output: the run's verdict and
// metrics in the shape BENCHMARK.json's consumers read.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is everything one run reports; -out and -compare use it.
type record struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Traced   bool    `json:"traced"`
	Smoke    bool    `json:"smoke"`
	Env      envInfo `json:"env"`
	result
	Samples map[string]int `json:"samples"`
	// The raw readings behind the gated metrics, in order: each set-up's
	// CPU seconds and each untraced group's CPU seconds.
	SetupCPU []float64 `json:"setup_cpu_s"`
	GroupCPU []float64 `json:"group_cpu_s"`
	// DecisionUS holds the daemons' Ingest latency percentiles in µs and
	// their sample count, from every decisionSampleEvery-th call of the
	// untraced phase.
	DecisionUS map[string]float64 `json:"decision_us,omitempty"`
	Problems   []string           `json:"problems,omitempty"`
}

// envInfo describes where and how a run was taken.
type envInfo struct {
	CPUs       int     `json:"cpus"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	StealPct   float64 `json:"steal_pct"`
	CPUSeconds float64 `json:"cpu_s"`
	WallSecs   float64 `json:"wall_s"`
	MaxRSSMB   float64 `json:"max_rss_mb"`
	GCCycles   float64 `json:"gc_cycles"`
	Mallocs    float64 `json:"mallocs"`
	AllocBytes float64 `json:"alloc_bytes"`
}

// commit reads the VCS revision the go tool stamped into the binary;
// builds outside a repository have none.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// runWorkload runs one workload in this process and builds its record.
func runWorkload(o options) (*record, *run, error) {
	w, ok := workloadByName(o.workload)
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	r := newRun(o)
	if err := w.run(r); err != nil {
		return nil, r, fmt.Errorf("%s: %w", w.name, err)
	}
	rec := &record{
		Workload: w.name, Seed: o.seed, Traced: o.traced, Smoke: o.smoke,
		Env: envInfo{
			CPUs: r.nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: commit(),
			StealPct: r.phase.stealPct, CPUSeconds: r.phase.cpu.Seconds(), WallSecs: r.phase.wall.Seconds(),
			MaxRSSMB: r.maxRSSMB, GCCycles: r.phase.gcCycles, Mallocs: r.phase.mallocs, AllocBytes: r.phase.allocB,
		},
		result: result{
			Correct:   r.failed == 0,
			Attempted: r.attempted,
			Failed:    r.failed,
			Metrics:   make(map[string]metricValue),
		},
		Samples:    map[string]int{"setup": len(r.setupCPU), "groups": len(r.plain), "traced_groups": len(r.tgroups)},
		SetupCPU:   r.setupCPU,
		DecisionUS: r.decisionUS,
		Problems:   r.problems,
	}
	for _, g := range r.plain {
		rec.GroupCPU = append(rec.GroupCPU, g.cpu.Seconds())
	}
	if o.traced {
		r.diagnostics()
		for _, m := range perLayer {
			rec.Metrics[m.name] = metricValue{r.layer[m.name], m.unit}
		}
	} else {
		for k, v := range r.endToEndMetrics() {
			rec.Metrics[k] = metricValue{v, unitOf(k)}
		}
	}
	return rec, r, nil
}

// printRecord writes the human-readable report, the full record and,
// last, the result line.
func printRecord(w io.Writer, rec *record) error {
	fmt.Fprintf(w, "workload %s seed %d traced %t cpus %d gomaxprocs %d commit %s steal %.1f%%\n",
		rec.Workload, rec.Seed, rec.Traced, rec.Env.CPUs, rec.Env.GOMAXPROCS, rec.Env.Commit, rec.Env.StealPct)
	fmt.Fprintf(w, "  samples: %d set-ups, %d measured groups, %d traced groups\n",
		rec.Samples["setup"], rec.Samples["groups"], rec.Samples["traced_groups"])
	fmt.Fprintf(w, "  peak RSS %.1f MB at the end of the untraced phase\n", rec.Env.MaxRSSMB)
	if d := rec.DecisionUS; d != nil {
		fmt.Fprintf(w, "  Ingest latency, %.0f sampled calls: p50 %.3g µs, p99 %.3g µs, p99.9 %.3g µs, p99.99 %.3g µs\n",
			d["samples"], d["p50"], d["p99"], d["p999"], d["p9999"])
	}
	names := make([]string, 0, len(rec.Metrics))
	for k := range rec.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-42s %16.6g %s\n", k, rec.Metrics[k].Value, rec.Metrics[k].Unit)
	}
	fmt.Fprintf(w, "  attempted %d failed %d\n", rec.Attempted, rec.Failed)
	for _, p := range rec.Problems {
		fmt.Fprintf(w, "  FAIL %s\n", p)
	}
	full, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "record %s\n", full)
	last, err := json.Marshal(rec.result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", last)
	return err
}

// writeRecords saves records as {"runs": [...]}.
func writeRecords(path string, recs []*record) error {
	b, err := json.MarshalIndent(map[string][]*record{"runs": recs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func main() {
	var (
		name    = flag.String("workload", "", "run this workload in-process (default: every workload, each in a child process)")
		seed    = flag.Uint64("seed", 1, "seed the grid and fleet datasets and the daemon captures are built from")
		seconds = flag.Float64("seconds", 15, "wall seconds each measured phase runs for")
		trace   = flag.Int("trace", 0, "1: traced run, reporting the per-layer metrics instead of the end-to-end ones")
		spans   = flag.String("spans", "", "with -trace 1 and -workload: write the span log to this file")
		out     = flag.String("out", "", "write the full records as JSON to this file")
		smoke   = flag.Bool("smoke", false, "smallest size: one op per workload")
		compare = flag.Bool("compare", false, "compare two -out files (arguments A.json B.json) against BENCHMARK.json's bounds")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatal(errors.New("-trace must be 0 or 1"))
	}
	if *seconds <= 0 {
		fatal(errors.New("-seconds must be positive"))
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare needs two files: A.json B.json"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	o := options{workload: *name, seed: *seed, seconds: *seconds, traced: *trace == 1, smoke: *smoke}
	if *name == "" {
		if !runAll(o, *out) {
			os.Exit(1)
		}
		return
	}
	rec, r, err := runWorkload(o)
	if err != nil {
		fatal(err)
	}
	if *spans != "" && r.tr != nil {
		if err := r.tr.write(*spans); err != nil {
			fatal(err)
		}
	}
	if *out != "" {
		if err := writeRecords(*out, []*record{rec}); err != nil {
			fatal(err)
		}
	}
	if err := printRecord(os.Stdout, rec); err != nil {
		fatal(err)
	}
	if !rec.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
