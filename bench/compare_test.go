package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(data, n=4) with the default "exclusive" method.
	cases := []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 5, 8.5},
		{[]float64{4, 2}, 1.5, 3, 4.5},
		{[]float64{3}, 3, 3, 3},
	}
	for _, c := range cases {
		q1, m, q3 := quartiles(c.in)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.in, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	higher := metricDef{Name: "jobs_per_s", Better: "higher", Bound: 0.10}
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(vals []float64, f float64) []float64 {
		out := make([]float64, len(vals))
		for i, v := range vals {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	cases := []struct {
		name       string
		m          metricDef
		base, head []float64
		want       string
	}{
		{"same runs", higher, steady, steady, "unchanged"},
		{"within bound", higher, steady, scale(steady, 0.95), "unchanged"},
		{"throughput drop", higher, steady, scale(steady, 0.8), "regressed"},
		{"throughput gain", higher, steady, scale(steady, 1.3), "improved"},
		{"latency rise", lower, steady, scale(steady, 1.2), "regressed"},
		{"latency drop", lower, steady, scale(steady, 0.8), "improved"},
		{"spread beyond bound", higher, noisy, scale(noisy, 0.95), "unresolved"},
		{"spread but every head run better", higher, noisy, scale(noisy, 3), "improved"},
		{"spread but every head run worse", lower, noisy, scale(noisy, 3), "regressed"},
	}
	for _, c := range cases {
		if got, _ := verdict(c.m, c.base, c.head); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareCLI drives -compare over report files: identical sides pass,
// a regression, a model-statistic change, or a failed run fails.
func TestCompareCLI(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bench, data, 0o644); err != nil {
		t.Fatal(err)
	}
	mk := func(name string, jobs, cycles float64, failed int) string {
		var rs []*result
		for i := 0; i < 5; i++ {
			r := &result{Workload: "fleet-short", Correct: true, Attempted: 100, Failed: failed,
				Metrics: map[string]float64{}, Meta: meta{Seed: int64(i)}}
			r.set("jobs_per_s", jobs*(1+0.01*float64(i%3)))
			// Seeds differ in model cycles; only a change for one seed is a
			// behaviour change.
			r.set("model_cycles", cycles+float64(i))
			rs = append(rs, r)
		}
		path := filepath.Join(dir, name)
		if err := writeReport(path, rs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := mk("base.json", 1000, 5000, 0)
	cases := []struct {
		name string
		head string
		code int
		out  string
	}{
		{"same", mk("same.json", 1000, 5000, 0), 0, "unchanged"},
		{"slower", mk("slow.json", 700, 5000, 0), 1, "regressed"},
		{"model changed", mk("model.json", 1000, 5001, 0), 1, "behaviour change"},
		{"failures", mk("failed.json", 1000, 5000, 3), 1, "calls failed"},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		code := run(context.Background(), []string{"-compare", "-benchmark", bench, base, "--", c.head}, &stdout, &stderr)
		if code != c.code || !strings.Contains(stdout.String(), c.out) {
			t.Errorf("%s: exit %d (want %d), output:\n%s%s", c.name, code, c.code, stdout.String(), stderr.String())
		}
	}
}
