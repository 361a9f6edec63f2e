package main

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchJSON is the benchmark definition, seen from this directory.
const benchJSON = "../BENCHMARK.json"

func loadDef(t *testing.T) *benchmarkDef {
	t.Helper()
	def, err := loadBenchmarkDef(benchJSON)
	if err != nil {
		t.Fatal(err)
	}
	return def
}

// contractResult is the last output line of a single-workload run.
type contractResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runCLI runs the benchmark command line in process and decodes its two
// output lines: the full report and the contract line.
func runCLI(t *testing.T, args ...string) (*result, contractResult) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append(args, "-benchmark", benchJSON)
	if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
		t.Fatalf("bench %s: exit %d\n%s", strings.Join(args, " "), code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d output lines, want 2:\n%s", len(lines), stdout.String())
	}
	var full result
	if err := json.Unmarshal([]byte(lines[0]), &full); err != nil {
		t.Fatalf("full report %q: %v", lines[0], err)
	}
	var res contractResult
	dec := json.NewDecoder(strings.NewReader(lines[1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line %q: %v", lines[1], err)
	}
	return &full, res
}

// TestWorkloadsShort runs every workload for a second on two-entry decks,
// untraced and traced, and checks the output contract: every metric of
// BENCHMARK.json emitted with its unit, nothing emitted that the file does
// not name, no failed calls, a passing gate.
func TestWorkloadsShort(t *testing.T) {
	def := loadDef(t)
	for _, w := range def.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				mode := map[bool]string{false: "0", true: "1"}[traced]
				full, res := runCLI(t, "--workload", w.Name, "--seed", "1", "--seconds", "1", "--trace", mode,
					"-deck", "2", "-spans", filepath.Join(t.TempDir(), "spans.json"))
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("trace=%s: correct=%t failed=%d attempted=%d", mode, res.Correct, res.Failed, res.Attempted)
				}
				want := def.metrics(traced)
				if len(res.Metrics) != len(want) {
					t.Errorf("trace=%s: %d metrics, want %d", mode, len(res.Metrics), len(want))
				}
				for _, m := range want {
					if mv, ok := res.Metrics[m.Name]; !ok || mv.Unit != m.Unit {
						t.Errorf("trace=%s: metric %s = %+v, want unit %s", mode, m.Name, mv, m.Unit)
					}
				}
				for name := range full.Metrics {
					if def.unit(name) == "" {
						t.Errorf("trace=%s: emits %s, which BENCHMARK.json does not name", mode, name)
					}
				}
				if !traced {
					for _, m := range want {
						if res.Metrics[m.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %g, want > 0", m.Name, res.Metrics[m.Name].Value)
						}
					}
				}
			}
		})
	}
}

// TestBenchmarkJSON checks the definition against its schema limits and
// the program: every workload builds a deck, and setup_s carries the
// largest bound.
func TestBenchmarkJSON(t *testing.T) {
	def := loadDef(t)
	if n := len(def.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q: malformed or repeated", n)
		}
		seen[n] = true
	}
	for _, w := range def.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if _, err := buildDeck(w.Name, 1, 2); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
	}
	maxBound, setupBound := 0.0, 0.0
	for _, m := range def.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound == 0 || setupBound != maxBound {
		t.Errorf("setup_s bound %g is not the largest (%g)", setupBound, maxBound)
	}
	for _, m := range append(append([]metricDef(nil), def.EndToEnd...), def.PerLayer...) {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("metric %+v: malformed unit or direction", m)
		}
	}
}
