// ascbench regenerates every table and figure of the paper (and the derived
// experiments that quantify its prose claims) on the simulator and the
// calibrated FPGA model. See DESIGN.md section 5 for the experiment index
// and EXPERIMENTS.md for recorded paper-vs-measured results. Host
// performance is measured elsewhere: the go test benchmarks and bench/.
//
// Usage:
//
//	ascbench            # run everything
//	ascbench -exp T1    # one experiment: T1, F1, F2, F3, D1 ... D13
//	ascbench -list      # list experiment ids
//	ascbench -json      # emit results as a JSON array
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is one element of the -json array.
type result struct {
	ID     string `json:"id"`
	Title  string `json:"title"`
	Output string `json:"output,omitempty"`
	Error  string `json:"error,omitempty"`
}

// run is the whole command: it returns 0 on success, 1 when an experiment
// fails, and 2 on a usage error (a bad flag or an unknown experiment id).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ascbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment id (T1, F1, F2, F3, D1..D13) or 'all'")
	list := fs.Bool("list", false, "list experiments")
	jsonOut := fs.Bool("json", false, "emit results as a JSON array")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	all := experiments.All()
	if *list {
		for _, e := range all {
			fmt.Fprintf(stdout, "%-4s %s\n", e.ID, e.Title)
		}
		return 0
	}
	selected := all
	if *exp != "all" {
		selected = nil
		ids := make([]string, len(all))
		for i, e := range all {
			ids[i] = e.ID
			if strings.EqualFold(*exp, e.ID) {
				selected = append(selected, e)
			}
		}
		if len(selected) == 0 {
			fmt.Fprintf(stderr, "ascbench: unknown experiment %q; valid ids: %s, all\n", *exp, strings.Join(ids, ", "))
			return 2
		}
	}

	results := make([]result, 0, len(selected))
	code := 0
	for _, e := range selected {
		out, err := e.Run()
		r := result{ID: e.ID, Title: e.Title, Output: out}
		if err != nil {
			r.Error = err.Error()
			code = 1
		}
		results = append(results, r)
		if *jsonOut {
			continue
		}
		fmt.Fprintf(stdout, "=== %s: %s ===\n", e.ID, e.Title)
		if err != nil {
			fmt.Fprintf(stderr, "%s failed: %s\n", e.ID, r.Error)
			continue
		}
		fmt.Fprintln(stdout, out)
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	return code
}
