package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// The benchmark definition is BENCHMARK.json at the repository root: the
// workloads, and the metrics with their units, directions, and (end-to-end
// metrics only) regression bounds. It is the one list of metrics: a run
// reports the metrics it names, with its units, and -compare judges them
// by its bounds.

// metricDef is one metric of the definition.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound,omitempty"`
}

// workloadDef is one workload of the definition.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchmarkDef is the part of BENCHMARK.json the program reads.
type benchmarkDef struct {
	Workloads []workloadDef `json:"workloads"`
	EndToEnd  []metricDef   `json:"end_to_end"`
	PerLayer  []metricDef   `json:"per_layer"`
}

func loadBenchmarkDef(path string) (*benchmarkDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkDef
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &b, nil
}

// metrics returns the metrics a run reports: the end-to-end metrics
// untraced, the per-layer metrics traced.
func (b *benchmarkDef) metrics(traced bool) []metricDef {
	if traced {
		return b.PerLayer
	}
	return b.EndToEnd
}

// unit returns a metric's unit ("" for a name the definition lacks).
func (b *benchmarkDef) unit(name string) string {
	for _, list := range [][]metricDef{b.EndToEnd, b.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}

// hasWorkload reports whether the definition names workload.
func (b *benchmarkDef) hasWorkload(workload string) bool {
	for _, w := range b.Workloads {
		if w.Name == workload {
			return true
		}
	}
	return false
}
