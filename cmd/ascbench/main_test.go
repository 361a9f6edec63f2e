package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// runCLI runs the command in-process and returns its exit code and output.
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestListPrintsEveryExperimentInOrder(t *testing.T) {
	code, out, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	all := experiments.All()
	if len(lines) != len(all) {
		t.Fatalf("-list printed %d lines, want %d:\n%s", len(lines), len(all), out)
	}
	for i, e := range all {
		if id := strings.Fields(lines[i])[0]; id != e.ID {
			t.Errorf("line %d lists %q, want %q", i, id, e.ID)
		}
	}
}

// TestFigureOutputMatchesGoldens pins the regeneration recipe in
// internal/experiments/golden_test.go: `ascbench -exp F1 | sed '1d'`
// reproduces the golden file byte for byte.
func TestFigureOutputMatchesGoldens(t *testing.T) {
	for id, golden := range map[string]string{"F1": "fig1.golden", "F2": "fig2.golden"} {
		want, err := os.ReadFile(filepath.Join("..", "..", "internal", "experiments", "testdata", golden))
		if err != nil {
			t.Fatal(err)
		}
		code, out, stderr := runCLI(t, "-exp", id)
		if code != 0 {
			t.Fatalf("-exp %s exited %d: %s", id, code, stderr)
		}
		_, body, _ := strings.Cut(out, "\n")
		if body != string(want) {
			t.Errorf("-exp %s minus its header differs from %s:\n--- got ---\n%s\n--- want ---\n%s", id, golden, body, want)
		}
	}
}

func TestExperimentIDIsCaseInsensitive(t *testing.T) {
	code, out, _ := runCLI(t, "-exp", "t1")
	if code != 0 || !strings.HasPrefix(out, "=== T1: ") {
		t.Fatalf("-exp t1 exited %d with output %q", code, out)
	}
}

func TestUnknownExperimentIsUsageError(t *testing.T) {
	code, out, stderr := runCLI(t, "-exp", "X9")
	if code != 2 {
		t.Fatalf("-exp X9 exited %d, want 2", code)
	}
	if out != "" {
		t.Errorf("-exp X9 wrote to stdout: %q", out)
	}
	for _, e := range experiments.All() {
		if !strings.Contains(stderr, e.ID) {
			t.Errorf("stderr does not name valid id %s: %q", e.ID, stderr)
		}
	}
}

func TestJSONEmitsOneResultPerExperiment(t *testing.T) {
	code, out, stderr := runCLI(t, "-json")
	if code != 0 {
		t.Fatalf("-json exited %d: %s", code, stderr)
	}
	var results []result
	if err := json.Unmarshal([]byte(out), &results); err != nil {
		t.Fatalf("-json output is not a JSON array of results: %v\n%s", err, out)
	}
	all := experiments.All()
	if len(results) != len(all) {
		t.Fatalf("-json emitted %d results, want %d", len(results), len(all))
	}
	for i, r := range results {
		if r.ID != all[i].ID || r.Output == "" || r.Error != "" {
			t.Errorf("result %d: id %q, %d output bytes, error %q; want id %q with output and no error",
				i, r.ID, len(r.Output), r.Error, all[i].ID)
		}
	}
}
