package obs

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// renderRegistry builds a small registry with every instrument kind and
// renders it — the canonical input for round-trip tests.
func renderRegistry(t *testing.T, runs, hits int64) string {
	t.Helper()
	reg := NewRegistry()
	c := reg.NewCounter("asc_runs_total", "Completed runs.")
	c.Add(runs)
	cv := reg.NewCounterVec("asc_cache_hits_total", "Cache hits by tier.", "tier")
	cv.With("program").Add(hits)
	cv.With("pool").Add(hits + 1)
	g := reg.NewGauge("asc_queue_depth", "Jobs waiting.")
	g.Set(3)
	h := reg.NewHistogram("asc_latency_seconds", "Request latency.", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(5)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestParseRoundTrip parses rendered output and re-renders it; the text
// must survive unchanged (same families, samples, values) and parse again.
func TestParseRoundTrip(t *testing.T) {
	text := renderRegistry(t, 7, 2)
	fams, err := ParseText(text)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	WriteFamilies(&b, fams)
	if b.String() != text {
		t.Errorf("round trip changed the exposition:\n--- in ---\n%s\n--- out ---\n%s", text, b.String())
	}
	if _, err := ParseText(b.String()); err != nil {
		t.Errorf("re-rendered exposition does not parse: %v", err)
	}
}

// TestFamiliesMatchParse holds Registry.Families to its contract on the
// values the exponent form used to hide: counters, gauge funcs and an
// integral histogram sum of at least 1e6 print as digits, a counter past
// 2^53 prints as the float64 it rounds to, and a vec with no children
// keeps its HELP and TYPE. ParseText of the rendering must be exactly
// Families, and WriteFamilies of it must be the rendering again.
func TestFamiliesMatchParse(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter("asc_sim_cycles_total", "Cycles.").Add(1234567)
	reg.NewCounter("asc_big_total", "Past 2^53.").Add(1<<53 + 1)
	reg.NewGaugeFunc("asc_heap_bytes", "Heap.", func() float64 { return 3e9 })
	reg.NewCounterVec("asc_empty_total", "No children yet.", "kind")
	h := reg.NewHistogram("asc_gang_size_jobs", "Lanes per gang.", []float64{1, 1e6})
	h.Observe(1_000_000)
	h.Observe(32)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"asc_sim_cycles_total 1234567\n",
		"asc_big_total 9.007199254740992e+15\n",
		"asc_heap_bytes 3000000000\n",
		"# HELP asc_empty_total No children yet.\n# TYPE asc_empty_total counter\n",
		`asc_gang_size_jobs_bucket{le="1e+06"} 2` + "\n",
		"asc_gang_size_jobs_sum 1000032\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition lacks %q:\n%s", want, text)
		}
	}
	fams, err := ParseText(text)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Families(); !reflect.DeepEqual(got, fams) {
		t.Errorf("Families differs from ParseText(WritePrometheus()):\n got %s\nwant %s", dump(got), dump(fams))
	}
	var again strings.Builder
	WriteFamilies(&again, fams)
	if again.String() != text {
		t.Errorf("WriteFamilies changed the text:\n--- in ---\n%s\n--- out ---\n%s", text, again.String())
	}
}

// dump prints families with their samples for a failure message.
func dump(fams []*ParsedFamily) string {
	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "%+v\n", *f)
	}
	return b.String()
}

// TestParseHistogramAttachment checks that _bucket/_sum/_count samples
// land inside their declared histogram family, not as stray families.
func TestParseHistogramAttachment(t *testing.T) {
	fams, err := ParseText(renderRegistry(t, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	var hist *ParsedFamily
	for _, f := range fams {
		if f.Name == "asc_latency_seconds" {
			hist = f
		}
		if strings.HasPrefix(f.Name, "asc_latency_seconds_") {
			t.Errorf("histogram child %s surfaced as its own family", f.Name)
		}
	}
	if hist == nil {
		t.Fatal("histogram family missing")
	}
	if hist.Type != "histogram" {
		t.Fatalf("family type = %q, want histogram", hist.Type)
	}
	// 3 finite buckets + +Inf + _sum + _count.
	if len(hist.Samples) != 6 {
		t.Fatalf("histogram carries %d samples, want 6: %+v", len(hist.Samples), hist.Samples)
	}
}

// TestMergeWithBackendLabel is the gateway's per-backend view: two
// backends' expositions merge with a backend label and every sample
// stays distinguishable and parses.
func TestMergeWithBackendLabel(t *testing.T) {
	a, err := ParseText(renderRegistry(t, 5, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseText(renderRegistry(t, 9, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, fams := range [][]*ParsedFamily{a, b} {
		name := "node-a:8642"
		if &fams[0] == &b[0] {
			name = "node-b:8642"
		}
		for _, f := range fams {
			for i := range f.Samples {
				f.Samples[i] = f.Samples[i].WithLabel("backend", name)
			}
		}
	}
	merged := MergeFamilies(a, b)
	var sb strings.Builder
	WriteFamilies(&sb, merged)
	out := sb.String()
	if _, err := ParseText(out); err != nil {
		t.Fatalf("merged exposition does not parse: %v\n%s", err, out)
	}
	if !strings.Contains(out, `asc_runs_total{backend="node-a:8642"} 5`) ||
		!strings.Contains(out, `asc_runs_total{backend="node-b:8642"} 9`) {
		t.Errorf("per-backend counter samples missing:\n%s", out)
	}
	// The backend label must ride along on vec samples too, and stay
	// before le on histogram buckets (renderer convention).
	if !strings.Contains(out, `asc_cache_hits_total{tier="program",backend="node-a:8642"} 1`) {
		t.Errorf("vec sample missing backend label:\n%s", out)
	}
	if !strings.Contains(out, `asc_latency_seconds_bucket{backend="node-a:8642",le="0.1"} 1`) {
		t.Errorf("histogram bucket label order wrong:\n%s", out)
	}
}

// TestSumSamples is the gateway's fleet view: identical label tuples sum
// (counters add, histogram buckets merge element-wise) and the result
// still parses — cumulative buckets, +Inf == count.
func TestSumSamples(t *testing.T) {
	a, err := ParseText(renderRegistry(t, 5, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseText(renderRegistry(t, 9, 2))
	if err != nil {
		t.Fatal(err)
	}
	merged := MergeFamilies(a, b)
	for _, f := range merged {
		f.SumSamples()
	}
	var sb strings.Builder
	WriteFamilies(&sb, merged)
	out := sb.String()
	if _, err := ParseText(out); err != nil {
		t.Fatalf("summed exposition does not parse: %v\n%s", err, out)
	}
	for _, want := range []string{
		"asc_runs_total 14",                       // 5 + 9
		`asc_cache_hits_total{tier="program"} 3`,  // 1 + 2
		`asc_cache_hits_total{tier="pool"} 5`,     // 2 + 3
		`asc_latency_seconds_bucket{le="+Inf"} 4`, // 2 observations per backend
		"asc_latency_seconds_count 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summed view missing %q:\n%s", want, out)
		}
	}
}

// TestParseTextErrors rejects structurally malformed expositions instead
// of merging garbage into a fleet scrape.
func TestParseTextErrors(t *testing.T) {
	for _, bad := range []string{
		"asc_x{le=\"0.1\" 1",      // unbalanced braces
		"asc_x notanumber",        // unparseable value
		"asc_x{novalue} 1",        // label without =
		`asc_x{l="unterminated 1`, // unterminated label value
	} {
		if _, err := ParseText(bad); err == nil {
			t.Errorf("ParseText(%q) accepted malformed input", bad)
		}
	}
}

// TestParseEscapes round-trips escaped help text and label values.
func TestParseEscapes(t *testing.T) {
	in := "# HELP asc_x line\\nbreak and \\\\slash\n# TYPE asc_x counter\nasc_x{p=\"a\\\"b\\nc\"} 1\n"
	fams, err := ParseText(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 1 {
		t.Fatalf("got %d families, want 1", len(fams))
	}
	if fams[0].Help != "line\nbreak and \\slash" {
		t.Errorf("help unescaped wrong: %q", fams[0].Help)
	}
	if v := fams[0].Samples[0].Labels[0].Value; v != "a\"b\nc" {
		t.Errorf("label value unescaped wrong: %q", v)
	}
	var b strings.Builder
	WriteFamilies(&b, fams)
	if b.String() != in {
		t.Errorf("escape round trip changed text:\n in: %q\nout: %q", in, b.String())
	}
}
