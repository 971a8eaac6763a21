package main

// Spans recorded from outside the program: each wraps one call into a
// layer's public entry point. They are kept in memory and written once
// at exit; per-packet calls go to histograms instead (see histogram).
//
// A span records wall time and the process's CPU time. Layer times are
// taken from CPU time: on a shared host the hypervisor's steal inflates
// wall-clock durations at random, while the CPU a call burned — on any
// thread, GC included — does not move with it.

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call. Parent is the index of the enclosing span
// (-1 for a root); Req identifies the request the call served — the
// run, grid, session or checkpoint index.
type span struct {
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	CPUStart int64  `json:"cpu_start_ns"`
	CPUEnd   int64  `json:"cpu_end_ns"`
	Parent   int    `json:"parent"`
	Req      int    `json:"req"`
}

// tracer is an append-only span log. It is used from one goroutine:
// the decomposition replays are serial by design.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), CPUStart: int64(cpuNow()), Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	t.spans[i].CPUEnd = int64(cpuNow())
	t.spans[i].End = int64(time.Since(t.t0))
}

// do wraps fn in a span.
func (t *tracer) do(name string, parent, req int, fn func(id int)) {
	id := t.begin(name, parent, req)
	fn(id)
	t.end(id)
}

// layerTotals aggregates the log by span name: count, total CPU time
// and self CPU time (CPU time minus the part spent in direct children).
type layerTotals struct {
	count     int
	cpu, self time.Duration
}

func (s span) cpu() time.Duration { return time.Duration(s.CPUEnd - s.CPUStart) }

func (t *tracer) totals() map[string]*layerTotals {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.cpu()
		}
	}
	out := make(map[string]*layerTotals)
	for i, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotals{}
			out[s.Name] = lt
		}
		lt.count++
		lt.cpu += s.cpu()
		lt.self += s.cpu() - child[i]
	}
	return out
}

// write dumps the log as JSON.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
