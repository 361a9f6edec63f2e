package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// Compare mode: the acceptance rule for a change, over report files of
// repeated runs of a base commit and a head commit. For every workload and
// end-to-end metric it reports each side's median and quartiles and a
// verdict against the metric's bound from BENCHMARK.json:
//
//   - unresolved: a side's quartile spread exceeds the bound, unless every
//     head run reads better (improved) or worse (regressed) than every base
//     run by more than the bound at the median;
//   - regressed / improved: the head median is worse / better than the base
//     median by more than the bound;
//   - unchanged: otherwise.
//
// The model statistics of a seed must be identical in every run of it, on
// both sides (a change in them is a behaviour change, not noise), and the
// share of failed calls (failed / attempted) is reported per side.

// quartiles returns the first quartile, median, and third quartile with
// the "exclusive" method of Python's statistics.quantiles(values, n=4).
func quartiles(vals []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// sideStats summarizes one side's runs of one metric.
type sideStats struct {
	Q1, Median, Q3 float64
	N              int
}

func (s sideStats) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

func stats(vals []float64) sideStats {
	q1, med, q3 := quartiles(vals)
	return sideStats{Q1: q1, Median: med, Q3: q3, N: len(vals)}
}

// verdict applies the acceptance rule to one metric's base and head runs.
// worse is the relative change of the head median in the bad direction.
func verdict(m metricDef, base, head []float64) (v string, worse float64) {
	b, h := stats(base), stats(head)
	if b.Median != 0 {
		worse = (h.Median - b.Median) / math.Abs(b.Median)
	}
	if m.Better == "higher" {
		worse = -worse
	}
	// better reports whether x reads better than y.
	better := func(x, y float64) bool {
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	all := func(pred func(x, y float64) bool) bool {
		for _, x := range head {
			for _, y := range base {
				if !pred(x, y) {
					return false
				}
			}
		}
		return true
	}
	switch {
	case b.spread() > m.Bound || h.spread() > m.Bound:
		switch {
		case worse < -m.Bound && all(better):
			return "improved", worse
		case worse > m.Bound && all(func(x, y float64) bool { return better(y, x) }):
			return "regressed", worse
		}
		return "unresolved", worse
	case worse > m.Bound:
		return "regressed", worse
	case worse < -m.Bound:
		return "improved", worse
	}
	return "unchanged", worse
}

// loadResults reads report files (or run outputs holding full-report lines).
func loadResults(paths []string) ([]*result, error) {
	var out []*result
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rep report
		if json.Unmarshal(data, &rep) == nil && len(rep.Results) > 0 {
			out = append(out, rep.Results...)
			continue
		}
		r := parseResult(data)
		if r == nil {
			return nil, fmt.Errorf("%s: no benchmark results", p)
		}
		out = append(out, r)
	}
	return out, nil
}

// metricValues collects one metric of one workload across results.
func metricValues(rs []*result, workload, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
			out = append(out, v)
		}
	}
	return out
}

// compareRow is one line of the comparison.
type compareRow struct {
	Workload, Metric string
	Base, Head       sideStats
	Worse, Bound     float64
	Verdict          string
}

// compareResults applies the rule to every workload and bounded metric
// present on both sides, and lists exact-metric mismatches and failures.
func compareResults(def *benchmarkDef, base, head []*result) (rows []compareRow, problems []string) {
	for _, w := range def.Workloads {
		for _, m := range def.EndToEnd {
			b, h := metricValues(base, w.Name, m.Name), metricValues(head, w.Name, m.Name)
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			v, worse := verdict(m, b, h)
			rows = append(rows, compareRow{w.Name, m.Name, stats(b), stats(h), worse, m.Bound, v})
		}
		// The model statistics depend on the deck alone: every run of one
		// seed, on either side, must report the same values.
		for _, exact := range []string{"model_cycles", "model_ipc"} {
			bySeed := map[int64][]float64{}
			var seeds []int64
			for _, r := range append(append([]*result(nil), base...), head...) {
				if v, ok := r.Metrics[exact]; ok && r.Workload == w.Name {
					if _, seen := bySeed[r.Meta.Seed]; !seen {
						seeds = append(seeds, r.Meta.Seed)
					}
					bySeed[r.Meta.Seed] = append(bySeed[r.Meta.Seed], v)
				}
			}
			for _, seed := range seeds {
				vals := bySeed[seed]
				for _, v := range vals {
					if v != vals[0] {
						problems = append(problems, fmt.Sprintf("%s seed %d %s differs across runs (%v): a behaviour change",
							w.Name, seed, exact, vals))
						break
					}
				}
			}
		}
		for _, side := range []struct {
			name string
			rs   []*result
		}{{"base", base}, {"head", head}} {
			for _, r := range side.rs {
				if r.Workload == w.Name && (r.Failed > 0 || !r.Correct) {
					problems = append(problems, fmt.Sprintf("%s %s run (seed %d): %d of %d calls failed, correct=%t",
						w.Name, side.name, r.Meta.Seed, r.Failed, r.Attempted, r.Correct))
				}
			}
		}
	}
	return rows, problems
}

func compareMain(def *benchmarkDef, args []string, stdout, stderr io.Writer) int {
	sep := -1
	for i, a := range args {
		if a == "--" {
			sep = i
		}
	}
	if sep <= 0 || sep == len(args)-1 {
		fmt.Fprintln(stderr, "usage: bench -compare base.json... -- head.json...")
		return 2
	}
	base, err := loadResults(args[:sep])
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	head, err := loadResults(args[sep+1:])
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	rows, problems := compareResults(def, base, head)
	fmt.Fprintf(stdout, "%-13s %-20s %-32s %-32s %8s %6s  %s\n", "workload", "metric",
		"base median [q1, q3] (n)", "head median [q1, q3] (n)", "worse", "bound", "verdict")
	code := 0
	for _, r := range rows {
		side := func(s sideStats) string {
			return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", s.Median, s.Q1, s.Q3, s.N)
		}
		fmt.Fprintf(stdout, "%-13s %-20s %-32s %-32s %+7.1f%% %5.0f%%  %s\n", r.Workload, r.Metric,
			side(r.Base), side(r.Head), 100*r.Worse, 100*r.Bound, r.Verdict)
		if r.Verdict == "regressed" {
			code = 1
		}
	}
	for _, w := range def.Workloads {
		b, h := maxFailedFrac(base, w.Name), maxFailedFrac(head, w.Name)
		if b >= 0 || h >= 0 {
			fmt.Fprintf(stdout, "%-13s failed_frac: base max %g, head max %g\n", w.Name, b, h)
		}
	}
	if len(problems) > 0 {
		fmt.Fprintln(stdout, "problems:\n  "+strings.Join(problems, "\n  "))
		code = 1
	}
	return code
}

// maxFailedFrac is the largest share of failed calls over a workload's
// runs, or -1 without runs.
func maxFailedFrac(rs []*result, workload string) float64 {
	m := -1.0
	for _, r := range rs {
		if r.Workload == workload {
			m = math.Max(m, ratio(float64(r.Failed), float64(r.Attempted)))
		}
	}
	return m
}
