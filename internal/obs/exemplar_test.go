package obs

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// exemplarFamilies is the deterministic fixture for the exemplar golden:
// histograms whose buckets carry trace-id exemplars, with and without
// timestamps, plain and labeled.
func exemplarFamilies() []*ParsedFamily {
	r := NewRegistry()
	h := r.NewHistogram("test_duration_seconds", "Request latency.", []float64{0.1, 1, 10})
	h.Observe(0.2) // no exemplar on this bucket
	h.ObserveWithExemplar(0.05, 1754524800.125, Label{Name: "trace_id", Value: "4bf92f3577b34da6a3ce929d0e0e4736"})
	h.ObserveWithExemplar(5, 0, Label{Name: "trace_id", Value: "00f067aa0ba902b74bf92f3577b34da6"}) // ts omitted
	h.ObserveWithExemplar(100, 1754524801, Label{Name: "trace_id", Value: "deadbeefdeadbeefdeadbeefdeadbeef"},
		Label{Name: "request_id", Value: "req-42"}) // +Inf bucket, two labels
	stages := labeledFamilies("stage", []string{"compile", "simulate"}, func(r *Registry, stage string) {
		h := r.NewHistogram("test_stage_seconds", "Stage latency.", []float64{0.5, 2})
		if stage == "compile" {
			h.ObserveWithExemplar(0.25, 1754524800.5, Label{Name: "trace_id", Value: "cafecafecafecafecafecafecafecafe"})
			return
		}
		h.Observe(1)
	})
	return MergeFamilies(r.Families(), stages)
}

// TestExemplarGolden pins the rendered exemplar syntax: each exemplar
// rides its bucket line as `# {labels} value [ts]`, buckets without
// exemplars render exactly as before, and the whole exposition parses.
func TestExemplarGolden(t *testing.T) {
	var b strings.Builder
	WriteFamilies(&b, exemplarFamilies())
	got := b.String()

	golden := filepath.Join("testdata", "exemplar.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("exemplar rendering drifted from golden (run with -update to accept):\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if _, err := ParseText(got); err != nil {
		t.Errorf("exemplar exposition does not parse: %v", err)
	}
}

// TestExemplarParse checks the parser recovers exemplars structurally:
// bucket line with exemplar → ParsedSample.Exemplar populated, labels and
// value and timestamp intact.
func TestExemplarParse(t *testing.T) {
	var b strings.Builder
	WriteFamilies(&b, exemplarFamilies())
	fams, err := ParseText(b.String())
	if err != nil {
		t.Fatal(err)
	}
	var hist *ParsedFamily
	for _, f := range fams {
		if f.Name == "test_duration_seconds" {
			hist = f
		}
	}
	if hist == nil {
		t.Fatal("histogram family missing")
	}
	byLE := map[string]ParsedSample{}
	for _, s := range hist.Samples {
		if s.Name != "test_duration_seconds_bucket" {
			continue
		}
		for _, l := range s.Labels {
			if l.Name == "le" {
				byLE[l.Value] = s
			}
		}
	}
	ex := byLE["0.1"].Exemplar
	if ex == nil {
		t.Fatal("le=0.1 bucket lost its exemplar")
	}
	if len(ex.Labels) != 1 || ex.Labels[0].Name != "trace_id" ||
		ex.Labels[0].Value != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("exemplar labels = %+v", ex.Labels)
	}
	if ex.Value != 0.05 || ex.Ts != 1754524800.125 {
		t.Errorf("exemplar value/ts = %v/%v", ex.Value, ex.Ts)
	}
	if byLE["1"].Exemplar != nil {
		t.Error("le=1 bucket (plain Observe) grew an exemplar")
	}
	if noTs := byLE["10"].Exemplar; noTs == nil || noTs.Ts != 0 {
		t.Errorf("ts-less exemplar wrong: %+v", noTs)
	}
	if inf := byLE["+Inf"].Exemplar; inf == nil || len(inf.Labels) != 2 {
		t.Errorf("+Inf exemplar wrong: %+v", inf)
	}
}

// randomRegistry renders a seed-determined registry mixing every
// instrument kind with randomized names, label values (including escape
// characters), observation placement, and exemplars.
func randomRegistry(t *testing.T, rng *rand.Rand) string {
	t.Helper()
	r := NewRegistry()
	hexDigits := "0123456789abcdef"
	randHex := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = hexDigits[rng.Intn(16)]
		}
		return string(b)
	}
	labelVals := []string{"plain", `quo"te`, `back\slash`, "new\nline", "", "x y z"}

	nc := rng.Intn(3)
	for i := 0; i < nc; i++ {
		c := r.NewCounter(fmt.Sprintf("rt_c%d_total", i), "Counter.")
		c.Add(int64(rng.Intn(1000)))
	}
	if rng.Intn(2) == 0 {
		cv := r.NewCounterVec("rt_cv_total", "Counter vec.", "kind")
		for i := 0; i < 1+rng.Intn(3); i++ {
			cv.With(labelVals[rng.Intn(len(labelVals))]).Add(int64(rng.Intn(50)))
		}
	}
	if rng.Intn(2) == 0 {
		g := r.NewGauge("rt_depth", "Gauge.")
		g.Set(int64(rng.Intn(100)))
	}
	nh := 1 + rng.Intn(2)
	for i := 0; i < nh; i++ {
		h := r.NewHistogram(fmt.Sprintf("rt_h%d_seconds", i), "Histogram.", []float64{0.01, 0.1, 1, 10})
		for j := 0; j < rng.Intn(8); j++ {
			v := rng.Float64() * 20
			if rng.Intn(2) == 0 {
				ts := 0.0
				if rng.Intn(3) > 0 {
					// Millisecond-resolution unix timestamps: what the fleet
					// actually stamps, and exactly representable in float64.
					ts = float64(rng.Int63n(2_000_000_000_000)) / 1000
				}
				h.ObserveWithExemplar(v, ts, Label{Name: "trace_id", Value: randHex(32)})
			} else {
				h.Observe(v)
			}
		}
	}
	if rng.Intn(2) == 0 {
		// Zero children is a declared family with no samples, which
		// WriteFamilies keeps like any other.
		gv := r.NewGaugeVec("rt_gv", "Gauge vec.", "kind")
		for j := 0; j < rng.Intn(3); j++ {
			gv.With(labelVals[rng.Intn(len(labelVals))]).Set(int64(rng.Intn(50)))
		}
	}
	var stages []string
	for _, stage := range []string{"compile", "exec", "peel"} {
		if rng.Intn(2) == 0 {
			stages = append(stages, stage)
		}
	}
	labeled := labeledFamilies("stage", stages, func(r *Registry, _ string) {
		h := r.NewHistogram("rt_hv_seconds", "Labeled histogram.", []float64{0.5, 5})
		for j := 0; j < rng.Intn(5); j++ {
			if rng.Intn(2) == 0 {
				h.ObserveWithExemplar(rng.Float64()*8, float64(rng.Int63n(2_000_000_000)),
					Label{Name: "trace_id", Value: randHex(32)})
			} else {
				h.Observe(rng.Float64() * 8)
			}
		}
	})
	var b strings.Builder
	WriteFamilies(&b, MergeFamilies(r.Families(), labeled))
	return b.String()
}

// TestParseWriteFixedPoint is the property test: for any exposition this
// package renders — exemplars, escapes, vecs and all —
// ParseText followed by WriteFamilies reproduces the text byte-for-byte,
// and parsing the re-rendered text yields the same families again.
func TestParseWriteFixedPoint(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		text := randomRegistry(t, rng)
		fams, err := ParseText(text)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, text)
		}
		var b strings.Builder
		WriteFamilies(&b, fams)
		if b.String() != text {
			t.Fatalf("seed %d: parse∘write is not a fixed point:\n--- in ---\n%s\n--- out ---\n%s",
				seed, text, b.String())
		}
		// Idempotence: a second pass must also be stable.
		fams2, err := ParseText(b.String())
		if err != nil {
			t.Fatalf("seed %d: re-parse failed: %v", seed, err)
		}
		var b2 strings.Builder
		WriteFamilies(&b2, fams2)
		if b2.String() != b.String() {
			t.Fatalf("seed %d: second round trip drifted", seed)
		}
	}
}

// TestExemplarThroughMerge drives the gateway's merge paths: WithLabel
// must carry the exemplar, and SumSamples must keep the newest exemplar
// (greatest timestamp) when collapsing identical tuples.
func TestExemplarThroughMerge(t *testing.T) {
	render := func(ts float64, trace string) string {
		r := NewRegistry()
		h := r.NewHistogram("rt_seconds", "x", []float64{1})
		h.ObserveWithExemplar(0.5, ts, Label{Name: "trace_id", Value: trace})
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a, err := ParseText(render(100, "aaaa"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseText(render(200, "bbbb"))
	if err != nil {
		t.Fatal(err)
	}

	// Per-backend view: the backend label rides along, exemplar intact.
	labeled := a[0].Samples[0].WithLabel("backend", "node-a")
	if labeled.Exemplar == nil || labeled.Exemplar.Labels[0].Value != "aaaa" {
		t.Fatalf("WithLabel dropped the exemplar: %+v", labeled)
	}

	// Fleet view: values sum, newest exemplar wins.
	merged := MergeFamilies(a, b)
	for _, f := range merged {
		f.SumSamples()
	}
	var sb strings.Builder
	WriteFamilies(&sb, merged)
	out := sb.String()
	if _, err := ParseText(out); err != nil {
		t.Fatalf("summed exemplar exposition does not parse: %v\n%s", err, out)
	}
	if !strings.Contains(out, `rt_seconds_bucket{le="1"} 2 # {trace_id="bbbb"} 0.5 200`) {
		t.Errorf("summed bucket must keep the newest exemplar:\n%s", out)
	}
}

// TestLintExemplarPlacement: ParseText admits exemplars on counter
// samples and histogram buckets only, and they must themselves parse.
func TestLintExemplarPlacement(t *testing.T) {
	bad := []struct{ name, text string }{
		{"gauge exemplar", "# HELP g x\n# TYPE g gauge\ng 1 # {trace_id=\"a\"} 1\n"},
		{"sum exemplar", "# HELP h x\n# TYPE h histogram\n" +
			"h_bucket{le=\"+Inf\"} 1\nh_sum 1 # {trace_id=\"a\"} 1\nh_count 1\n"},
		{"count exemplar", "# HELP h x\n# TYPE h histogram\n" +
			"h_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1 # {trace_id=\"a\"} 1\n"},
		{"labelless exemplar", "# HELP c_total x\n# TYPE c_total counter\nc_total 1 # 0.5\n"},
		{"unbalanced exemplar braces", "# HELP c_total x\n# TYPE c_total counter\nc_total 1 # {trace_id=\"a\" 0.5\n"},
		{"valueless exemplar", "# HELP c_total x\n# TYPE c_total counter\nc_total 1 # {trace_id=\"a\"}\n"},
		{"bad exemplar ts", "# HELP c_total x\n# TYPE c_total counter\nc_total 1 # {trace_id=\"a\"} 0.5 xyz\n"},
	}
	for _, tc := range bad {
		if _, err := ParseText(tc.text); err == nil {
			t.Errorf("%s: ParseText accepted bad exposition", tc.name)
		}
	}
	good := "# HELP c_total x\n# TYPE c_total counter\nc_total 1 # {trace_id=\"abc\"} 0.5 1754524800.125\n" +
		"# HELP h x\n# TYPE h histogram\n" +
		"h_bucket{le=\"1\"} 1 # {trace_id=\"def\"} 0.5\nh_bucket{le=\"+Inf\"} 1\nh_sum 0.5\nh_count 1\n"
	if _, err := ParseText(good); err != nil {
		t.Errorf("ParseText rejected valid exemplar exposition: %v", err)
	}
}
