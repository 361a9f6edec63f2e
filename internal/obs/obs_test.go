package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_total", "x")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.NewGauge("test_gauge", "x")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Errorf("gauge = %d, want 4", got)
	}
}

func TestVecChildIdentity(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("test_outcomes_total", "x", "outcome")
	a := v.With("ok")
	b := v.With("ok")
	if a != b {
		t.Error("With returned distinct children for the same label value")
	}
	a.Inc()
	if got := v.With("ok").Value(); got != 1 {
		t.Errorf("child value = %d, want 1", got)
	}
	if got := v.With("err").Value(); got != 0 {
		t.Errorf("distinct child value = %d, want 0", got)
	}
}

// TestVecChildKeysUnforgeable: label values holding the key separator or
// backslashes stay distinct children that render distinct samples, and a
// one-label tuple cannot forge a two-label one, so the exposition parses
// and round-trips every value.
func TestVecChildKeysUnforgeable(t *testing.T) {
	r := NewRegistry()
	one := r.NewCounterVec("x_total", "x", "k")
	one.With("a\x1fb").Inc()
	one.With("a\x1fc").Inc()
	one.With(`a\u`).Inc()
	two := r.NewCounterVec("y_total", "y", "k", "l")
	two.With("a\x1fb", "c").Inc()
	two.With("a", "b\x1fc").Inc()
	two.With(`a\`, "b").Inc()
	var text strings.Builder
	r.WritePrometheus(&text)
	fams, err := ParseText(text.String())
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, text.String())
	}
	want := map[string][]string{
		"x_total": {"k=\"a\x1fb\"", "k=\"a\x1fc\"", `k="a\\u"`},
		"y_total": {"k=\"a\x1fb\",l=\"c\"", "k=\"a\",l=\"b\x1fc\"", `k="a\\",l="b"`},
	}
	for _, f := range fams {
		got := map[string]bool{}
		for _, s := range f.Samples {
			var b strings.Builder
			writeLabels(&b, s.Labels)
			got[b.String()] = true
		}
		for _, w := range want[f.Name] {
			if !got["{"+w+"}"] {
				t.Errorf("%s lacks the sample {%s}; has %v", f.Name, w, got)
			}
		}
		if len(f.Samples) != len(want[f.Name]) {
			t.Errorf("%s has %d samples, want %d", f.Name, len(f.Samples), len(want[f.Name]))
		}
	}
}

func TestInvalidNamesPanic(t *testing.T) {
	for _, name := range []string{"Bad", "9starts_with_digit", "has-dash", "has space", ""} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q did not panic", name)
				}
			}()
			NewRegistry().NewCounter(name, "x")
		}()
	}
	// Duplicate registration must panic too.
	func() {
		r := NewRegistry()
		r.NewCounter("dup_total", "x")
		defer func() {
			if recover() == nil {
				t.Error("duplicate registration did not panic")
			}
		}()
		r.NewCounter("dup_total", "x")
	}()
}

// TestHistogramBuckets pins the le semantics: an observation equal to a
// bound lands in that bound's bucket (binary search via
// sort.SearchFloat64s), above every bound in the +Inf overflow.
func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("test_seconds", "x", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 4, 5, 100} {
		h.Observe(v)
	}
	counts, total, sum, _ := h.snapshot()
	want := []int64{2, 2, 1, 2} // le=1: {0.5,1}; le=2: {1.5,2}; le=4: {4}; +Inf: {5,100}
	for i, w := range want {
		if counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, counts[i], w)
		}
	}
	if total != 7 {
		t.Errorf("total = %d, want 7", total)
	}
	if sum != 114 {
		t.Errorf("sum = %v, want 114", sum)
	}
}

func TestGaugeFuncAndCollect(t *testing.T) {
	r := NewRegistry()
	n := 0
	r.NewGaugeFunc("test_depth", "x", func() float64 { n++; return float64(n) })
	mirror := r.NewCounter("test_mirrored_total", "x")
	r.OnCollect(func() { mirror.Set(42) })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "test_depth 1") {
		t.Errorf("gauge func not rendered:\n%s", out)
	}
	if !strings.Contains(out, "test_mirrored_total 42") {
		t.Errorf("collect callback did not run:\n%s", out)
	}
}

func TestRuntimeMetrics(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"go_goroutines ", "go_memstats_heap_alloc_bytes ", "go_gc_cycles_total "} {
		if !strings.Contains(out, want) {
			t.Errorf("runtime exposition missing %q", want)
		}
	}
	if _, err := ParseText(out); err != nil {
		t.Errorf("runtime exposition does not parse: %v", err)
	}
}

// TestConcurrentInstruments hammers every instrument type from many
// goroutines; run under -race this is the package's data-race check.
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_total", "x")
	v := r.NewCounterVec("test_vec_total", "x", "k")
	h := r.NewHistogram("test_seconds", "x", []float64{0.1, 1, 10})
	g := r.NewGauge("test_gauge", "x")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				v.With([]string{"a", "b", "c"}[j%3]).Inc()
				h.Observe(float64(j) / 100)
				g.Set(int64(j))
				if j%100 == 0 {
					var b strings.Builder
					r.WritePrometheus(&b)
				}
			}
		}(i)
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if _, got, _, _ := h.snapshot(); got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
}
