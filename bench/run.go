package main

// One workload run: set-up repeated and timed, a measured phase of op
// groups until the time budget is spent, then the reference and the
// output checks, and — in a traced run — a second, traced phase plus the
// per-layer decomposition.

import (
	"fmt"
	"runtime"
	"time"

	"trafficreshape/internal/stats"
)

// options are the knobs of one workload run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	smoke    bool
	// refSkew shifts every seed the reference outputs are built from.
	// It is 0 except in the test that proves a mismatched reference is
	// caught.
	refSkew uint64
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, so one slow repetition does not move it.
const setupReps = 3

// group is one timed slice of the measured phase.
type group struct {
	ops       float64
	cpu, wall time.Duration
}

type run struct {
	options
	nproc int
	tr    *tracer // nil outside the traced phase

	setupCPU []float64
	plain    []group // untraced groups
	tgroups  []group
	phase    phase // the untraced phase as a whole
	// maxRSSMB is the peak RSS at the end of the untraced phase, before
	// any reference or replay work.
	maxRSSMB float64
	// decisionUS holds the daemons' sampled Ingest latency percentiles.
	decisionUS map[string]float64

	// pending are the output checks of the groups measured so far; they
	// run once the reference exists (runChecks).
	pending           []func()
	attempted, failed int64
	problems          []string

	// layer holds the per-layer metrics; counts holds the raw sums
	// (cells, packets, windows, bytes) they are normalised from.
	layer  map[string]float64
	counts map[string]float64
}

func newRun(o options) *run {
	return &run{options: o, nproc: runtime.NumCPU(), layer: make(map[string]float64), counts: make(map[string]float64)}
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return stats.Quantile(xs, 0.5) }

// meanSpan returns the mean duration of the named spans in unit (0 when
// none were recorded).
func meanSpan(tot map[string]*layerTotals, name string, unit time.Duration) float64 {
	lt := tot[name]
	if lt == nil || lt.count == 0 {
		return 0
	}
	return float64(lt.cpu) / float64(lt.count) / float64(unit)
}

// spanTotal returns the summed duration of the named spans.
func spanTotal(tot map[string]*layerTotals, name string) time.Duration {
	if lt := tot[name]; lt != nil {
		return lt.cpu
	}
	return 0
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// refSeed maps a seed to the one its reference is built from.
func (r *run) refSeed(seed uint64) uint64 { return seed + r.refSkew }

// fail records a failed output check covering n ops.
func (r *run) fail(n int64, format string, args ...any) {
	r.failed += n
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// setup runs fn setupReps times (once in smoke mode), recording the CPU
// seconds of each repetition.
func (r *run) setup(fn func(rep int) error) error {
	reps := setupReps
	if r.smoke {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		c0 := cpuNow()
		if err := fn(i); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		r.setupCPU = append(r.setupCPU, (cpuNow() - c0).Seconds())
	}
	return nil
}

// opFunc runs one group of ops and returns the op count and the check of
// its outputs. The check runs later, untimed, once the reference exists
// (runChecks), and reports failures through run.fail.
type opFunc func(i int) (ops float64, check func())

// budget is the wall time one measured phase runs for: all of
// -seconds, or half of it in a traced run, where a traced phase of the
// same length follows.
func (r *run) budget() time.Duration {
	s := r.seconds
	if r.traced {
		s /= 2
	}
	return time.Duration(s * float64(time.Second))
}

// measure runs op groups until the budget is spent (one group in smoke
// mode) and returns them. attempted counts every op; the groups' checks
// are queued for runChecks.
func (r *run) measure(op opFunc) []group {
	var out []group
	deadline := time.Now().Add(r.budget())
	for i := 0; ; i++ {
		w0, c0 := time.Now(), cpuNow()
		ops, check := op(i)
		out = append(out, group{ops: ops, cpu: cpuNow() - c0, wall: time.Since(w0)})
		r.attempted += int64(ops)
		if check != nil {
			r.pending = append(r.pending, check)
		}
		if r.smoke || !time.Now().Before(deadline) {
			return out
		}
	}
}

// runChecks runs the queued output checks.
func (r *run) runChecks() {
	for _, check := range r.pending {
		check()
	}
	r.pending = nil
}

// measurePlain is the untraced phase, the source of every gated metric.
func (r *run) measurePlain(op opFunc) {
	runtime.GC()
	s0 := take()
	r.plain = r.measure(op)
	r.phase = since(s0)
	r.maxRSSMB = maxRSSMB()
}

// measureTraced is the traced phase: the same op with spans (and any
// per-call histograms) on. It is a no-op in an untraced run.
func (r *run) measureTraced(op opFunc) {
	if !r.traced {
		return
	}
	runtime.GC()
	r.tr = newTracer()
	r.tgroups = r.measure(op)
}

// cpuPerOp is the median over groups of CPU seconds per op.
func cpuPerOp(gs []group) float64 {
	xs := make([]float64, 0, len(gs))
	for _, g := range gs {
		if g.ops > 0 {
			xs = append(xs, g.cpu.Seconds()/g.ops)
		}
	}
	return median(xs)
}

// endToEndMetrics computes the gated metrics from the untraced phase.
func (r *run) endToEndMetrics() map[string]float64 {
	m := map[string]float64{"setup_s": median(r.setupCPU)}
	if c := cpuPerOp(r.plain); c > 0 {
		m["ops_per_cpu_s"] = 1 / c
	}
	return m
}

// diagnostics fills the bench.* per-layer metrics: wall clock and host
// noise beside the CPU-normalised numbers.
func (r *run) diagnostics() {
	var ops, cpu, wall float64
	for _, g := range r.plain {
		ops += g.ops
		cpu += g.cpu.Seconds()
		wall += g.wall.Seconds()
	}
	r.layer["bench.wall_s"] = wall
	if wall > 0 {
		r.layer["bench.wall_ops_per_s"] = ops / wall
		r.layer["bench.cpu_util"] = cpu / wall / float64(r.nproc)
	}
	r.layer["bench.steal_pct"] = r.phase.stealPct
	r.layer["bench.gc_cycles"] = r.phase.gcCycles
	r.layer["bench.max_rss_mb"] = r.maxRSSMB
	if ops > 0 {
		r.layer["bench.alloc_bytes_per_op"] = r.phase.allocB / ops
	}
	if plain, traced := cpuPerOp(r.plain), cpuPerOp(r.tgroups); plain > 0 && traced > 0 {
		r.layer["bench.trace_overhead_pct"] = 100 * (traced - plain) / plain
	}
}
