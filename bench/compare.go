package main

// -compare: per-metric deltas between two sets of records, judged
// against the bounds BENCHMARK.json fixes for the end-to-end metrics.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json -compare needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadSpec reads BENCHMARK.json from the repository root, whether the
// benchmark runs from there or from its own directory.
func loadSpec() (*benchmarkSpec, error) {
	var lastErr error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(p)
		if err != nil {
			lastErr = err
			continue
		}
		var s benchmarkSpec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, nil
	}
	return nil, lastErr
}

func loadRecords(path string) (map[string]*record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f struct {
		Runs []*record `json:"runs"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]*record)
	for _, r := range f.Runs {
		if !r.Traced {
			out[r.Workload] = r
		}
	}
	return out, nil
}

// compareFiles prints every end-to-end metric of every workload in a
// (the base) and b (the change) with its relative change, and reports
// whether all stay within their bounds and no run of b failed.
func compareFiles(w io.Writer, a, b string) (bool, error) {
	spec, err := loadSpec()
	if err != nil {
		return false, fmt.Errorf("reading BENCHMARK.json: %w", err)
	}
	base, err := loadRecords(a)
	if err != nil {
		return false, err
	}
	head, err := loadRecords(b)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "%-16s %-16s %14s %14s %9s %7s  verdict\n", "workload", "metric", "base", "change", "delta", "bound")
	for _, wl := range workloads {
		rb, rh := base[wl.name], head[wl.name]
		if rb == nil || rh == nil {
			fmt.Fprintf(w, "%-16s missing from %s or %s\n", wl.name, a, b)
			ok = false
			continue
		}
		if rh.Failed > 0 || !rh.Correct {
			fmt.Fprintf(w, "%-16s FAILED: %d of %d ops\n", wl.name, rh.Failed, rh.Attempted)
			ok = false
		}
		for _, m := range spec.EndToEnd {
			vb, vh := rb.Metrics[m.Name].Value, rh.Metrics[m.Name].Value
			if vb == 0 {
				fmt.Fprintf(w, "%-16s %-16s %14s\n", wl.name, m.Name, "no base value")
				ok = false
				continue
			}
			delta := (vh - vb) / vb
			worse := delta
			if m.Better == "higher" {
				worse = -delta
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict = "REGRESSION"
				ok = false
			}
			fmt.Fprintf(w, "%-16s %-16s %14.6g %14.6g %+8.2f%% %6.0f%%  %s\n",
				wl.name, m.Name, vb, vh, 100*delta, 100*m.Bound, verdict)
		}
	}
	return ok, nil
}
