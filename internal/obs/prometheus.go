package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
)

// ContentType is the Content-Type of the text exposition format rendered
// by WritePrometheus.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus runs the collect callbacks and renders every family in
// Prometheus text exposition format v0.0.4 through WriteFamilies:
// families sorted by name, HELP/TYPE lines before samples, histogram
// buckets cumulative and terminated by +Inf.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	WriteFamilies(&b, r.Families())
	_, err := io.WriteString(w, b.String())
	return err
}

// ServeHTTP makes a Registry mountable as a scrape endpoint.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", ContentType)
	r.WritePrometheus(w)
}

// Families runs the collect callbacks and returns the registry as parsed
// families, sorted by name with each family's children sorted by label
// values: exactly what ParseText reads back from WritePrometheus. A family
// with no children yet keeps its HELP and TYPE and has no samples.
func (r *Registry) Families() []*ParsedFamily {
	r.mu.Lock()
	collectors := slices.Clone(r.collectors)
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	// Collectors run outside the registry lock: they only touch family
	// children, and running them unlocked keeps a slow callback from
	// blocking registration.
	for _, fn := range collectors {
		fn()
	}
	out := make([]*ParsedFamily, len(fams))
	for i, f := range fams {
		out[i] = f.parsed()
	}
	slices.SortFunc(out, byName)
	return out
}

func byName(a, b *ParsedFamily) int { return strings.Compare(a.Name, b.Name) }

// parsed is one family as ParseText would read its rendering.
func (f *family) parsed() *ParsedFamily {
	p := &ParsedFamily{Name: f.name, Help: f.help, Type: f.typ}
	if f.fn != nil {
		p.Samples = []ParsedSample{{Name: f.name, Value: f.fn()}}
		return p
	}
	f.mu.Lock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	children := make([]any, len(keys))
	for i, k := range keys {
		children[i] = f.children[k]
	}
	f.mu.Unlock()
	for i, key := range keys {
		var labels []Label
		if len(f.labels) > 0 {
			values := strings.Split(key, childKeySep)
			for j, name := range f.labels {
				labels = append(labels, Label{Name: name, Value: keyUnescaper.Replace(values[j])})
			}
		}
		switch c := children[i].(type) {
		case interface{ Value() int64 }: // *Counter or *Gauge
			p.Samples = append(p.Samples, ParsedSample{Name: f.name, Labels: labels, Value: float64(c.Value())})
		case *Histogram:
			counts, total, sum, exemplars := c.snapshot()
			var cum int64
			for bi, n := range counts {
				le := "+Inf"
				if bi < len(c.bounds) {
					le = formatFloat(c.bounds[bi])
				}
				cum += n
				s := ParsedSample{Name: f.name + "_bucket", Value: float64(cum),
					Labels: append(append([]Label(nil), labels...), Label{Name: "le", Value: le})}
				if exemplars != nil {
					s.Exemplar = exemplars[bi]
				}
				p.Samples = append(p.Samples, s)
			}
			p.Samples = append(p.Samples,
				ParsedSample{Name: f.name + "_sum", Labels: labels, Value: sum},
				ParsedSample{Name: f.name + "_count", Labels: labels, Value: float64(total)})
		}
	}
	return p
}

// WriteFamilies renders families in text exposition form, sorted by
// family name, with HELP/TYPE lines preceding samples. It is the one
// renderer: WritePrometheus renders a registry's Families through it, and
// ascgw renders merged backend scrapes through it, so any text it writes
// parses again. A family with no samples keeps its HELP and TYPE lines.
func WriteFamilies(b *strings.Builder, fams []*ParsedFamily) {
	sorted := slices.Clone(fams)
	slices.SortFunc(sorted, byName)
	for _, f := range sorted {
		// HELP always precedes TYPE, even when empty: ParseText (and strict
		// scrapers) require the pair in that order.
		fmt.Fprintf(b, "# HELP %s %s\n", f.Name, escapeHelp(f.Help))
		fmt.Fprintf(b, "# TYPE %s %s\n", f.Name, f.Type)
		for _, s := range f.Samples {
			b.WriteString(s.Name)
			writeLabels(b, s.Labels)
			b.WriteByte(' ')
			b.WriteString(formatValue(s.Value))
			writeExemplar(b, s.Exemplar)
			b.WriteByte('\n')
		}
	}
}

// writeLabels renders {k="v",...}, or nothing when there are no labels.
func writeLabels(b *strings.Builder, labels []Label) {
	if len(labels) == 0 {
		return
	}
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

// writeExemplar renders an OpenMetrics exemplar suffix — a space, `#`,
// the exemplar label set, the observed value, and (when present) the
// observation timestamp:
//
//	asc_request_duration_seconds_bucket{le="0.05"} 12 # {trace_id="4bf9…"} 0.043 1754524800.125
//
// It writes nothing for a nil exemplar. The timestamp prints in
// shortest-round-trip fixed-point form ("1754524800.125"), the
// OpenMetrics timestamp shape, so the text round-trips through ParseText.
func writeExemplar(b *strings.Builder, ex *Exemplar) {
	if ex == nil {
		return
	}
	b.WriteString(" # ")
	if len(ex.Labels) == 0 {
		b.WriteString("{}")
	}
	writeLabels(b, ex.Labels)
	b.WriteByte(' ')
	b.WriteString(formatValue(ex.Value))
	if ex.Ts != 0 {
		b.WriteByte(' ')
		b.WriteString(strconv.FormatFloat(ex.Ts, 'f', -1, 64))
	}
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote, and newline are the only characters with escapes.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// escapeHelp escapes backslashes and newlines in HELP text.
func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

// formatValue renders a sample or exemplar value: an integral value below
// 2^53 in magnitude as plain digits (every such value is exact in a
// float64), anything else in Go's shortest-round-trip form. A larger
// integral value, such as a counter past 2^53, prints rounded to the
// float64 every reader parses it into.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		return strconv.FormatInt(int64(v), 10)
	}
	return formatFloat(v)
}

// formatFloat renders a histogram bucket bound, the text of its le label:
// Go's shortest-round-trip form. The text is part of the series identity,
// so it never changes with the value formatting above.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
