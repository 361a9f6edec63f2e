package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// This file is the read side of the exposition format: a strict parser for
// the text this package renders, plus helpers to relabel and merge parsed
// families. ascgw uses it to serve a fleet-wide /metrics: each backend's
// scrape is parsed, tagged with a backend label (or summed across
// backends), merged with the gateway's own Registry.Families, and rendered
// back out through WriteFamilies; ascd and ascgw both project their JSON
// /metrics view from parsed families.

// ParsedSample is one sample line of a parsed exposition: the full sample
// name (histogram samples keep their _bucket/_sum/_count suffix), its
// label pairs in rendered order, the value, and the OpenMetrics exemplar
// when the line carried one.
type ParsedSample struct {
	Name     string
	Labels   []Label
	Value    float64
	Exemplar *Exemplar
}

// Label is one label pair of a parsed sample.
type Label struct {
	Name  string
	Value string
}

// ParsedFamily is one metric family of a parsed exposition.
type ParsedFamily struct {
	Name    string
	Help    string
	Type    string // "counter", "gauge", or "histogram"
	Samples []ParsedSample
}

// ParseText parses a Prometheus text exposition (format v0.0.4) into its
// families, preserving family and sample order. It is the one reader of
// the format, and it holds any input to the rules WritePrometheus keeps:
//
//   - metric names match [a-z_:][a-z0-9_:]* and label names [a-z_][a-z0-9_]*;
//   - a family's HELP, then its TYPE (counter, gauge, or histogram), come
//     before its samples;
//   - every sample belongs to a declared family, and no sample (name plus
//     label set) appears twice;
//   - exemplars ride only on counter samples and histogram buckets;
//   - each histogram series' buckets are cumulative and end at an
//     le="+Inf" bucket equal to its _count.
//
// Anything else is an error, so a malformed scrape is refused instead of
// merged.
func ParseText(text string) ([]*ParsedFamily, error) {
	p := parser{
		byName: map[string]*ParsedFamily{},
		help:   map[string]string{},
		seen:   map[string]bool{},
		series: map[string]*histSeries{},
	}
	for ln, line := range strings.Split(text, "\n") {
		if err := p.line(strings.TrimRight(line, "\r")); err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", ln+1, err)
		}
	}
	for _, h := range p.order {
		switch {
		case !h.hasInf && (h.hasFinite || h.hasCount):
			return nil, fmt.Errorf("obs: histogram %q has no le=\"+Inf\" bucket", h.family)
		case h.hasInf && !h.hasCount:
			return nil, fmt.Errorf("obs: histogram %q has buckets but no _count", h.family)
		case h.inf != h.count:
			return nil, fmt.Errorf("obs: histogram %q: +Inf bucket %v != count %v", h.family, h.inf, h.count)
		}
	}
	return p.fams, nil
}

// parser is ParseText's state across lines.
type parser struct {
	fams   []*ParsedFamily
	byName map[string]*ParsedFamily // families declared by a TYPE line
	help   map[string]string        // HELP text by metric name
	seen   map[string]bool          // sample identities (labelKey)
	series map[string]*histSeries   // histogram series by family and labels minus le
	order  []*histSeries            // series in first-seen order
}

// histSeries tracks one histogram series' buckets and count.
type histSeries struct {
	family                      string
	last, inf, count            float64 // last finite bucket, +Inf bucket, _count
	hasFinite, hasInf, hasCount bool
}

// histSuffixes are the sample-name suffixes of a histogram's children.
var histSuffixes = []string{"_bucket", "_sum", "_count"}

func (p *parser) line(line string) error {
	switch {
	case line == "":
		return nil
	case strings.HasPrefix(line, "# HELP "):
		name, help, _ := strings.Cut(line[len("# HELP "):], " ")
		if err := p.declare("HELP", name); err != nil {
			return err
		}
		p.help[name] = unescapeHelp(help)
		if f := p.byName[name]; f != nil {
			f.Help = p.help[name]
		}
		return nil
	case strings.HasPrefix(line, "# TYPE "):
		parts := strings.Fields(line[len("# TYPE "):])
		if len(parts) != 2 {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		name, typ := parts[0], parts[1]
		if err := p.declare("TYPE", name); err != nil {
			return err
		}
		if typ != "counter" && typ != "gauge" && typ != "histogram" {
			return fmt.Errorf("unknown type %q", typ)
		}
		help, ok := p.help[name]
		if !ok {
			return fmt.Errorf("TYPE for %q without preceding HELP", name)
		}
		if f := p.byName[name]; f != nil {
			f.Type = typ
			return nil
		}
		f := &ParsedFamily{Name: name, Help: help, Type: typ}
		p.byName[name] = f
		p.fams = append(p.fams, f)
		return nil
	case strings.HasPrefix(line, "#"):
		return nil // a comment
	}
	return p.sample(line)
}

// declare checks the metric name of a HELP or TYPE line.
func (p *parser) declare(kind, name string) error {
	if !nameRE.MatchString(name) {
		return fmt.Errorf("%s for invalid metric name %q", kind, name)
	}
	if f := p.byName[name]; f != nil && len(f.Samples) > 0 {
		return fmt.Errorf("%s for %q after its samples", kind, name)
	}
	return nil
}

func (p *parser) sample(line string) error {
	s, err := parseSample(line)
	if err != nil {
		return err
	}
	if !nameRE.MatchString(s.Name) {
		return fmt.Errorf("invalid sample metric name %q", s.Name)
	}
	f, suffix := p.owner(s.Name)
	switch {
	case f == nil:
		return fmt.Errorf("sample %q has no preceding TYPE declaration", s.Name)
	case f.Type == "histogram" && suffix == "":
		return fmt.Errorf("bare sample %q for histogram family", s.Name)
	case s.Exemplar != nil && f.Type != "counter" && suffix != "_bucket":
		// OpenMetrics allows exemplars only on counter samples and
		// histogram buckets — not on gauges, _sum, or _count.
		return fmt.Errorf("exemplar on %s sample %q", f.Type+suffix, s.Name)
	}
	key := s.labelKey()
	if p.seen[key] {
		return fmt.Errorf("duplicate sample %q", line)
	}
	p.seen[key] = true
	if suffix != "" {
		if err := p.histogram(f.Name, suffix, s); err != nil {
			return err
		}
	}
	f.Samples = append(f.Samples, s)
	return nil
}

// owner resolves the declared family a sample name belongs to: the
// non-histogram family of that exact name, else the histogram whose
// _bucket, _sum, or _count child it is. A histogram's own name comes back
// with an empty suffix, which is a bare sample.
func (p *parser) owner(name string) (*ParsedFamily, string) {
	if f := p.byName[name]; f != nil && f.Type != "histogram" {
		return f, ""
	}
	for _, sfx := range histSuffixes {
		if base, ok := strings.CutSuffix(name, sfx); ok {
			if f := p.byName[base]; f != nil && f.Type == "histogram" {
				return f, sfx
			}
		}
	}
	return p.byName[name], ""
}

// histogram checks one histogram child sample against its series: finite
// buckets are cumulative and come before +Inf; ParseText checks +Inf
// against _count once every line is read.
func (p *parser) histogram(family, suffix string, s ParsedSample) error {
	le, hasLE := "", false
	rest := make([]Label, 0, len(s.Labels))
	for _, l := range s.Labels {
		if l.Name == "le" {
			le, hasLE = l.Value, true
			continue
		}
		rest = append(rest, l)
	}
	key := ParsedSample{Name: family, Labels: rest}.labelKey()
	h := p.series[key]
	if h == nil {
		h = &histSeries{family: family}
		p.series[key] = h
		p.order = append(p.order, h)
	}
	switch {
	case suffix == "_count":
		h.count, h.hasCount = s.Value, true
	case suffix != "_bucket":
	case !hasLE:
		return fmt.Errorf("histogram bucket without le label: %q", s.Name)
	case h.hasInf:
		return fmt.Errorf("bucket after +Inf for %q", family)
	case s.Value < h.last:
		return fmt.Errorf("histogram %q buckets not cumulative (%v < %v)", family, s.Value, h.last)
	case le == "+Inf":
		h.inf, h.hasInf = s.Value, true
	default:
		if _, err := strconv.ParseFloat(le, 64); err != nil {
			return fmt.Errorf("unparseable le bound %q", le)
		}
		h.last, h.hasFinite = s.Value, true
	}
	return nil
}

// parseSample splits one sample line:
//
//	name[{labels}] value [timestamp] [# {exemplar-labels} value [timestamp]]
//
// The sample's label block is terminated by the first close brace outside a
// quoted label value — not the last brace on the line, which would swallow
// an exemplar's label set.
func parseSample(line string) (ParsedSample, error) {
	var s ParsedSample
	rest := line
	// A sample's label block opens immediately after the metric name — a
	// '{' past the first whitespace belongs to an exemplar, not the sample.
	if i := strings.IndexAny(line, " \t{"); i >= 0 && line[i] == '{' {
		j := labelBlockEnd(line, i+1)
		if j < 0 {
			return s, fmt.Errorf("unbalanced braces in %q", line)
		}
		s.Name = line[:i]
		var err error
		if s.Labels, err = parseLabels(line[i+1 : j]); err != nil {
			return s, err
		}
		rest = strings.TrimSpace(line[j+1:])
	} else {
		if i < 0 {
			return s, fmt.Errorf("sample without value: %q", line)
		}
		s.Name = line[:i]
		rest = strings.TrimSpace(line[i:])
	}
	// Everything before a '#' (if any) is value [timestamp]; after it, the
	// exemplar. The value/timestamp region contains no quotes, so a plain
	// byte scan is safe.
	exPart := ""
	if h := strings.IndexByte(rest, '#'); h >= 0 {
		exPart = strings.TrimSpace(rest[h+1:])
		rest = strings.TrimSpace(rest[:h])
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("want value [timestamp] in %q", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("unparseable sample value %q", fields[0])
	}
	s.Value = v
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return s, fmt.Errorf("unparseable sample timestamp %q", fields[1])
		}
	}
	if exPart != "" {
		ex, err := parseExemplar(exPart)
		if err != nil {
			return s, fmt.Errorf("%w in %q", err, line)
		}
		s.Exemplar = ex
	}
	return s, nil
}

// labelBlockEnd returns the index of the '}' closing a label block whose
// body starts at `start`, honouring quoted label values (a '}' inside
// quotes, or a backslash-escaped quote, does not terminate the block).
// Returns -1 when the block never closes.
func labelBlockEnd(line string, start int) int {
	inQuote := false
	for i := start; i < len(line); i++ {
		switch line[i] {
		case '\\':
			if inQuote {
				i++ // skip the escaped byte
			}
		case '"':
			inQuote = !inQuote
		case '}':
			if !inQuote {
				return i
			}
		}
	}
	return -1
}

// parseExemplar parses the suffix after a sample line's '#':
// `{labels} value [timestamp]`.
func parseExemplar(part string) (*Exemplar, error) {
	if len(part) == 0 || part[0] != '{' {
		return nil, fmt.Errorf("exemplar without label set")
	}
	j := labelBlockEnd(part, 1)
	if j < 0 {
		return nil, fmt.Errorf("unbalanced exemplar braces")
	}
	labels, err := parseLabels(part[1:j])
	if err != nil {
		return nil, err
	}
	fields := strings.Fields(part[j+1:])
	if len(fields) < 1 || len(fields) > 2 {
		return nil, fmt.Errorf("malformed exemplar value")
	}
	ex := &Exemplar{Labels: labels}
	if ex.Value, err = strconv.ParseFloat(fields[0], 64); err != nil {
		return nil, fmt.Errorf("unparseable exemplar value %q", fields[0])
	}
	if len(fields) == 2 {
		if ex.Ts, err = strconv.ParseFloat(fields[1], 64); err != nil {
			return nil, fmt.Errorf("unparseable exemplar timestamp %q", fields[1])
		}
	}
	return ex, nil
}

// parseLabels splits a rendered label body (`k="v",k2="v2"`), undoing the
// exposition escapes. Label names must be valid and distinct.
func parseLabels(body string) ([]Label, error) {
	var out []Label
	for len(body) > 0 {
		eq := strings.IndexByte(body, '=')
		if eq < 0 {
			return nil, fmt.Errorf("label without '=' in %q", body)
		}
		name := strings.TrimSpace(body[:eq])
		if !labelRE.MatchString(name) {
			return nil, fmt.Errorf("invalid label name %q", name)
		}
		for _, l := range out {
			if l.Name == name {
				return nil, fmt.Errorf("duplicate label %q", name)
			}
		}
		rest := body[eq+1:]
		if len(rest) == 0 || rest[0] != '"' {
			return nil, fmt.Errorf("unquoted label value in %q", body)
		}
		rest = rest[1:]
		var b strings.Builder
		i := 0
		for ; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				i++
				switch rest[i] {
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(rest[i])
				}
				continue
			}
			if c == '"' {
				break
			}
			b.WriteByte(c)
		}
		if i >= len(rest) {
			return nil, fmt.Errorf("unterminated label value in %q", body)
		}
		out = append(out, Label{Name: name, Value: b.String()})
		rest = strings.TrimSpace(rest[i+1:])
		body = strings.TrimPrefix(rest, ",")
	}
	return out, nil
}

// unescapeHelp undoes escapeHelp in one pass: `\\` is a backslash, `\n` a
// newline, and any other backslash stands for itself.
func unescapeHelp(h string) string {
	if !strings.Contains(h, `\`) {
		return h
	}
	var b strings.Builder
	for i := 0; i < len(h); i++ {
		if h[i] == '\\' && i+1 < len(h) && (h[i+1] == '\\' || h[i+1] == 'n') {
			i++
			if h[i] == 'n' {
				b.WriteByte('\n')
				continue
			}
		}
		b.WriteByte(h[i])
	}
	return b.String()
}

// WithLabel returns a copy of s with the given label pair appended (after
// any existing labels, before a histogram le pair if present — position
// does not matter to scrapers, only the set does, but keeping le last
// matches this package's renderer).
func (s ParsedSample) WithLabel(name, value string) ParsedSample {
	labels := make([]Label, 0, len(s.Labels)+1)
	inserted := false
	for _, l := range s.Labels {
		if l.Name == "le" && !inserted {
			labels = append(labels, Label{Name: name, Value: value})
			inserted = true
		}
		labels = append(labels, l)
	}
	if !inserted {
		labels = append(labels, Label{Name: name, Value: value})
	}
	return ParsedSample{Name: s.Name, Labels: labels, Value: s.Value, Exemplar: s.Exemplar}
}

// labelKey is the sample's identity for merging: name plus sorted label
// pairs, values escaped as child keys are.
func (s ParsedSample) labelKey() string {
	pairs := make([]string, len(s.Labels))
	for i, l := range s.Labels {
		pairs[i] = l.Name + childKeySep + keyEscaper.Replace(l.Value)
	}
	sort.Strings(pairs)
	return s.Name + "\x1e" + strings.Join(pairs, "\x1f\x1f")
}

// MergeFamilies folds src into dst (both keyed by family name, ordered):
// families new to dst are appended; families present in both get src's
// samples appended after dst's. Sample identities are not deduplicated —
// callers distinguish same-name samples with a label (WithLabel) or sum
// them first (SumSamples).
func MergeFamilies(dst []*ParsedFamily, src []*ParsedFamily) []*ParsedFamily {
	byName := make(map[string]*ParsedFamily, len(dst))
	for _, f := range dst {
		byName[f.Name] = f
	}
	for _, f := range src {
		d, ok := byName[f.Name]
		if !ok {
			cp := &ParsedFamily{Name: f.Name, Help: f.Help, Type: f.Type,
				Samples: append([]ParsedSample(nil), f.Samples...)}
			byName[f.Name] = cp
			dst = append(dst, cp)
			continue
		}
		if d.Help == "" {
			d.Help = f.Help
		}
		d.Samples = append(d.Samples, f.Samples...)
	}
	return dst
}

// SumSamples collapses samples with identical name and label tuple by
// summing their values, preserving first-seen order. Applied to the same
// family scraped from N backends, it yields the fleet-wide view: counters
// and gauges sum, and histogram _bucket/_sum/_count series merge
// element-wise (backends built from one binary share bucket bounds, so
// per-le sums remain cumulative).
func (f *ParsedFamily) SumSamples() {
	byKey := make(map[string]int, len(f.Samples))
	out := f.Samples[:0]
	for _, s := range f.Samples {
		k := s.labelKey()
		if i, ok := byKey[k]; ok {
			out[i].Value += s.Value
			// Exemplars don't sum; the most recent observation wins so the
			// fleet view points at a live, retrievable trace.
			if s.Exemplar != nil && (out[i].Exemplar == nil || s.Exemplar.Ts > out[i].Exemplar.Ts) {
				out[i].Exemplar = s.Exemplar
			}
			continue
		}
		byKey[k] = len(out)
		out = append(out, s)
	}
	f.Samples = out
}
