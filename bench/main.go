// Command bench is the repository's end-to-end and per-layer benchmark: it
// boots in-process ascd servers (and, for fleet-short, an ascgw gateway) on
// loopback listeners, drives them closed-loop from a seeded deck of
// requests, checks every result, and prints the metrics of BENCHMARK.json.
//
// Usage (from the repository root; see bench/README.md):
//
//	bash bench/run.sh --workload fleet-short --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --seconds 20 -out base1.json       # every workload
//	bash bench/run.sh -compare base1.json base2.json -- head1.json head2.json
//
// A single-workload run prints its full report (metadata, every metric,
// span summary) as one JSON line, then as the last line a JSON object with
// exactly correct, attempted, failed, and metrics: the end-to-end metrics
// untraced (-trace 0), the per-layer metrics traced (-trace 1).
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run (empty: every workload, each in its own child process)")
	seed := fs.Int64("seed", 1, "deck seed")
	seconds := fs.Float64("seconds", 20, "timed window in seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	deckSize := fs.Int("deck", defaultDeckSize, "requests per deck")
	spans := fs.String("spans", "", "traced run: span file (default .bench_build/spans/<workload>-seed<N>.json)")
	out := fs.String("out", "", "also write the run report (every workload's full result) to this file")
	compare := fs.Bool("compare", false, "compare report files: -compare base... -- head...")
	benchJSON := fs.String("benchmark", "BENCHMARK.json", "the benchmark definition: workloads, metrics, units, bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, err := loadBenchmarkDef(*benchJSON)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *compare {
		return compareMain(def, fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "unexpected arguments %q\n", fs.Args())
		return 2
	}
	if nproc := runtime.NumCPU(); nproc < clients {
		fmt.Fprintf(stderr, "refusing to start: the closed loop's %d clients need %d CPUs, nproc=%d, so callers would queue for CPUs, not for the server\n",
			clients, clients, nproc)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "-trace takes 0 or 1")
		return 2
	}
	if *seconds <= 0 || *deckSize < 1 {
		fmt.Fprintln(stderr, "-seconds and -deck must be positive")
		return 2
	}
	o := options{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		deckSize: *deckSize, spans: *spans,
	}
	if o.workload == "" {
		return runAll(ctx, def, *benchJSON, o, *out, stdout, stderr)
	}
	if !def.hasWorkload(o.workload) {
		fmt.Fprintf(stderr, "unknown workload %q\n", o.workload)
		return 2
	}
	if o.trace && o.spans == "" {
		o.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	}
	res, err := runWorkload(ctx, o)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", o.workload, err)
		return 1
	}
	printTable(stderr, def, res)
	full, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", full, contractLine(def, res, o.trace))
	if *out != "" {
		if err := writeReport(*out, []*result{res}); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// contractLine is the last output line: correctness, call counts, and the
// definition's metrics of the run's kind with their units (a layer metric
// the workload does not exercise reads 0).
func contractLine(def *benchmarkDef, res *result, traced bool) []byte {
	metrics := map[string]metricValue{}
	for _, m := range def.metrics(traced) {
		metrics[m.Name] = metricValue{Value: res.Metrics[m.Name], Unit: m.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	return line
}

// printTable writes a human-readable summary of a result.
func printTable(w io.Writer, def *benchmarkDef, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "== %s (seed %d, %.0fs window, correct=%t, %d calls, %d failed)\n",
		res.Workload, res.Meta.Seed, res.Meta.WindowS, res.Correct, res.Attempted, res.Failed)
	for _, n := range names {
		fmt.Fprintf(w, "  %-40s %14.4f %s\n", n, res.Metrics[n], def.unit(n))
	}
	for _, note := range res.Notes {
		fmt.Fprintf(w, "  note: %s\n", note)
	}
}

// report is the file -out writes and -compare reads.
type report struct {
	Results []*result `json:"results"`
}

func writeReport(path string, results []*result) error {
	data, err := json.MarshalIndent(report{Results: results}, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runAll runs every workload, each in its own child process (a re-exec of
// this binary) so heap, pools, and peak RSS do not carry across workloads.
func runAll(ctx context.Context, def *benchmarkDef, benchJSON string, o options, out string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	var results []*result
	code := 0
	for _, w := range def.Workloads {
		childArgs := []string{"-workload", w.Name, "-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", map[bool]string{false: "0", true: "1"}[o.trace],
			"-deck", strconv.Itoa(o.deckSize), "-benchmark", benchJSON}
		cmd := exec.CommandContext(ctx, exe, childArgs...)
		cmd.Stderr = stderr
		data, err := cmd.Output()
		res := parseResult(data)
		if err != nil || res == nil {
			fmt.Fprintf(stderr, "%s: child run failed: %v\n", w.Name, err)
			code = 1
		}
		if res != nil {
			results = append(results, res)
		}
	}
	line, err := json.Marshal(report{Results: results})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if out != "" {
		if err := writeReport(out, results); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	return code
}

// parseResult finds the full-report line in a run's output.
func parseResult(data []byte) *result {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	var found *result
	for sc.Scan() {
		var r result
		if json.Unmarshal(sc.Bytes(), &r) == nil && r.Workload != "" {
			found = &r
		}
	}
	return found
}
