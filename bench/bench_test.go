package main

// Smoke test of the benchmark: every workload at -smoke size emits
// every metric BENCHMARK.json names, with its unit, and passes its own
// output checks; a reference built from another seed is caught. No
// assertion depends on timing.

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// spec is BENCHMARK.json as far as the test checks it.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) *spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return &s
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	s := loadBenchmarkJSON(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q %q, program %q %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(s.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(s.EndToEnd), len(endToEnd))
	}
	for i, m := range s.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end %d: BENCHMARK.json %s/%s/%s, program %s/%s/%s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(s.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(s.PerLayer), len(perLayer))
	}
	for i, m := range s.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: BENCHMARK.json %s/%s/%s, program %s/%s/%s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
	}
}

// TestSmokeEveryWorkload runs each workload once untraced and once
// traced at smoke size.
func TestSmokeEveryWorkload(t *testing.T) {
	s := loadBenchmarkJSON(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rec, _, err := runWorkload(options{workload: w.name, seed: 1, seconds: 1, traced: traced, smoke: true})
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d %v",
					w.name, traced, rec.Correct, rec.Attempted, rec.Failed, rec.Problems)
			}
			if rec.Env.MaxRSSMB <= 0 {
				t.Errorf("%s traced=%t: peak RSS %v not recorded", w.name, traced, rec.Env.MaxRSSMB)
			}
			if daemon := strings.HasPrefix(w.name, "daemon-"); daemon != (rec.DecisionUS["samples"] > 0) {
				t.Errorf("%s traced=%t: %v sampled Ingest latencies", w.name, traced, rec.DecisionUS["samples"])
			}
			type named struct{ name, unit string }
			var want []named
			if traced {
				for _, m := range s.PerLayer {
					want = append(want, named{m.Name, m.Unit})
				}
			} else {
				for _, m := range s.EndToEnd {
					want = append(want, named{m.Name, m.Unit})
				}
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics, want %d", w.name, traced, len(rec.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := rec.Metrics[m.name]
				switch {
				case !ok:
					t.Errorf("%s traced=%t: metric %s missing", w.name, traced, m.name)
				case v.Unit != m.unit:
					t.Errorf("%s traced=%t: %s unit %q, want %q", w.name, traced, m.name, v.Unit, m.unit)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s traced=%t: %s = %v", w.name, traced, m.name, v.Value)
				case !traced && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.name, v.Value)
				}
			}
		}
	}
}

// TestMismatchedReferenceFails proves the output checks bite: with the
// reference built from another seed, every workload whose inputs come
// from the seed reports failed ops.
func TestMismatchedReferenceFails(t *testing.T) {
	for _, w := range workloads {
		rec, _, err := runWorkload(options{workload: w.name, seed: 1, seconds: 1, smoke: true, refSkew: 1})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if rec.Failed == 0 || rec.Correct {
			t.Errorf("%s: mismatched reference not detected (failed=%d)", w.name, rec.Failed)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h histogram
	for v := int64(1); v <= 100000; v++ {
		h.record(v)
	}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		want := q * 100000
		if got := h.quantile(q); math.Abs(got-want)/want > 0.02 {
			t.Errorf("quantile(%v) = %v, want %v within 2%%", q, got, want)
		}
	}
	if got := h.mean(); got != 50000.5 {
		t.Errorf("mean = %v, want 50000.5", got)
	}
}
