package obs

import (
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// labeledFamilies builds one registry per label value with fill and
// merges their families the way ascgw's per-backend view merges backend
// scrapes: every sample carries its registry's value of the label. It is
// how a labeled histogram reaches the renderer.
func labeledFamilies(label string, values []string, fill func(r *Registry, value string)) []*ParsedFamily {
	var out []*ParsedFamily
	for _, v := range values {
		r := NewRegistry()
		fill(r, v)
		fams := r.Families()
		for _, f := range fams {
			for j := range f.Samples {
				f.Samples[j] = f.Samples[j].WithLabel(label, v)
			}
		}
		out = MergeFamilies(out, fams)
	}
	return out
}

// testFamilies is the deterministic exposition fixture exercising every
// instrument shape: testRegistry's, plus a histogram with labels.
func testFamilies() []*ParsedFamily {
	stages := labeledFamilies("stage", []string{"compile", "simulate"}, func(r *Registry, stage string) {
		h := r.NewHistogram("test_stage_seconds", "Stage latency.", []float64{0.5, 2})
		for _, v := range map[string][]float64{"compile": {0.25}, "simulate": {1, 3}}[stage] {
			h.Observe(v)
		}
	})
	return MergeFamilies(testRegistry().Families(), stages)
}

// testRegistry builds a deterministic registry exercising every registry
// instrument: plain and labeled counters and gauges, a gauge func,
// label-value escaping, and a histogram.
func testRegistry() *Registry {
	r := NewRegistry()
	jobs := r.NewCounter("test_jobs_total", "Jobs processed.")
	jobs.Add(3)
	out := r.NewCounterVec("test_outcomes_total", "Finished jobs by outcome.", "outcome")
	out.With("completed").Add(2)
	out.With("failed").Inc()
	out.With(`quote"back\slash` + "\nnewline").Inc()
	depth := r.NewGauge("test_queue_depth", "Jobs waiting now.")
	depth.Set(7)
	r.NewGaugeFunc("test_workers", "Worker goroutines.", func() float64 { return 4 })
	idle := r.NewGaugeVec("test_pool_idle_machines", "Warm machines parked, per configuration.", "config")
	idle.With("pes=16 threads=16").Set(2)
	idle.With("pes=64 threads=8").Set(1)
	h := r.NewHistogram("test_duration_seconds", "Request latency.", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(100) // lands in +Inf
	return r
}

// TestExposition golden-tests the rendered Prometheus text format and
// holds it to the strict parser. CI smokes this test under -race.
func TestExposition(t *testing.T) {
	var b strings.Builder
	WriteFamilies(&b, testFamilies())
	got := b.String()

	golden := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("exposition drifted from golden file (run with -update to accept):\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	if _, err := ParseText(got); err != nil {
		t.Errorf("rendered exposition does not parse: %v", err)
	}

	// Rendering twice must be deterministic (children sorted, no map
	// iteration order leaking through).
	var b2 strings.Builder
	WriteFamilies(&b2, testFamilies())
	if b2.String() != got {
		t.Error("two renders of identical registries differ")
	}
}

func TestServeHTTP(t *testing.T) {
	rec := httptest.NewRecorder()
	testRegistry().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != ContentType {
		t.Errorf("Content-Type = %q, want %q", ct, ContentType)
	}
	if !strings.Contains(rec.Body.String(), "test_jobs_total 3") {
		t.Errorf("body missing sample:\n%s", rec.Body.String())
	}
}

// TestLintCatchesViolations feeds ParseText, the one exposition lint,
// known-bad expositions. The last three are shapes a fleet merge must
// refuse: a sample with an empty name, a +Inf bucket below a finite
// bucket and its _count, and a sample with no TYPE.
func TestLintCatchesViolations(t *testing.T) {
	cases := []struct {
		name, text string
	}{
		{"bad name", "# HELP Bad x\n"},
		{"sample without type", "orphan_total 1\n"},
		{"type after sample", "# HELP a_total x\n# TYPE a_total counter\na_total 1\n# TYPE a_total counter\n"},
		{"unknown type", "# HELP a x\n# TYPE a summary\n"},
		{"non-cumulative buckets", "# HELP h x\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n"},
		{"missing +Inf", "# HELP h x\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_sum 1\nh_count 5\n"},
		{"inf != count", "# HELP h x\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 9\n"},
		{"empty sample name", " 00"},
		{"+Inf below a finite bucket and _count", "# HELP h x\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 5\n"},
		{"untyped sample", "x_total 3\n"},
	}
	for _, tc := range cases {
		if _, err := ParseText(tc.text); err == nil {
			t.Errorf("%s: ParseText accepted bad exposition", tc.name)
		}
	}
	good := "# HELP h x\n# TYPE h histogram\n" +
		"h_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n"
	if _, err := ParseText(good); err != nil {
		t.Errorf("ParseText rejected valid exposition: %v", err)
	}
}
