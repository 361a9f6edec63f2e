package dtrace

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/wire"
)

// TraceDump is the GET /debug/traces response body.
type TraceDump struct {
	Service string           `json:"service"`
	Traces  []*FinishedTrace `json:"traces"`
}

// Serve answers GET /debug/traces for the tier named service from tr's
// ring:
//
//	GET /debug/traces                  newest traces (limit 64)
//	GET /debug/traces?trace=<id>       one trace by id
//	GET /debug/traces?error=1          errored traces only
//	GET /debug/traces?min_ms=250       traces at least 250ms long
//	GET /debug/traces?limit=10         cap the result set
//	...&format=waterfall               the traces as text waterfalls
//
// With remote non-nil, a trace query stitches tr's half of that trace with
// the halves remote returns (ascgw fetches them from every backend) into
// one fleet-wide trace. A nil tracer serves an empty dump, so the endpoint
// can be mounted unconditionally.
func Serve(w http.ResponseWriter, r *http.Request, service string, tr *Tracer,
	remote func(ctx context.Context, traceID string) []*FinishedTrace) {
	if r.Method != http.MethodGet {
		wire.WriteError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	f, err := filterFromQuery(r)
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	dump := TraceDump{Service: service, Traces: []*FinishedTrace{}}
	switch {
	case remote != nil && f.TraceID != "":
		if st := Stitch(tr.Lookup(f.TraceID), remote(r.Context(), f.TraceID)...); st != nil {
			dump.Traces = append(dump.Traces, st)
		}
	case tr != nil:
		dump.Traces = tr.List(f)
	}
	if r.URL.Query().Get("format") == "waterfall" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if len(dump.Traces) == 0 {
			io.WriteString(w, Waterfall(nil))
		}
		for _, t := range dump.Traces {
			io.WriteString(w, Waterfall(t))
		}
		return
	}
	wire.WriteJSON(w, http.StatusOK, &dump)
}

// filterFromQuery builds a Filter from /debug/traces query parameters
// (trace, error, min_ms, limit).
func filterFromQuery(r *http.Request) (Filter, error) {
	q := r.URL.Query()
	f := Filter{TraceID: q.Get("trace")}
	if v := q.Get("error"); v != "" {
		f.ErrorOnly = v == "1" || v == "true"
	}
	if v := q.Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || ms < 0 {
			return f, fmt.Errorf("bad min_ms %q", v)
		}
		f.MinDuration = time.Duration(ms * float64(time.Millisecond))
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return f, fmt.Errorf("bad limit %q", v)
		}
		f.Limit = n
	}
	return f, nil
}

// Stitch merges remote spans (a backend's view of the same trace id) into
// a copy of base, yielding the fleet-wide trace. Span order and parent
// links are preserved — the gateway's forward span ids are the parents of
// backend roots, so the waterfall renders as one tree. base may be nil
// when only remote tiers retained the trace; the first remote trace then
// seeds the identity.
func Stitch(base *FinishedTrace, remotes ...*FinishedTrace) *FinishedTrace {
	var out *FinishedTrace
	if base != nil {
		cp := *base
		cp.Spans = append([]SpanRec(nil), base.Spans...)
		out = &cp
	}
	for _, rt := range remotes {
		if rt == nil {
			continue
		}
		if out == nil {
			cp := *rt
			cp.Spans = append([]SpanRec(nil), rt.Spans...)
			out = &cp
			continue
		}
		out.Spans = append(out.Spans, rt.Spans...)
		out.Error = out.Error || rt.Error
	}
	return out
}

// Waterfall renders a finished (possibly stitched) trace as a text
// waterfall: one line per span, indented by parent depth, with offset and
// duration relative to the trace start and a condensed attribute list.
func Waterfall(t *FinishedTrace) string {
	if t == nil {
		return "no trace\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s  %s/%s  %.2fms  spans=%d", t.TraceID, t.Service, t.Name, t.DurationMs, len(t.Spans))
	if t.RequestID != "" {
		fmt.Fprintf(&b, "  request_id=%s", t.RequestID)
	}
	if t.Error {
		b.WriteString("  ERROR")
	}
	b.WriteByte('\n')

	// Build the tree: children by parent id, roots = spans whose parent is
	// absent from the trace (the true root, plus any span orphaned by a
	// tier that did not retain its half).
	present := make(map[string]bool, len(t.Spans))
	for _, s := range t.Spans {
		present[s.SpanID] = true
	}
	children := map[string][]int{}
	var roots []int
	for i, s := range t.Spans {
		if s.ParentID != "" && present[s.ParentID] {
			children[s.ParentID] = append(children[s.ParentID], i)
		} else {
			roots = append(roots, i)
		}
	}
	byStart := func(idx []int) {
		sort.SliceStable(idx, func(a, c int) bool { return t.Spans[idx[a]].Start.Before(t.Spans[idx[c]].Start) })
	}
	byStart(roots)
	for k := range children {
		byStart(children[k])
	}

	// Duration scale for the bar column.
	total := t.DurationMs
	if total <= 0 {
		total = 1
	}
	const barWidth = 24
	var render func(i, depth int)
	render = func(i, depth int) {
		s := &t.Spans[i]
		off := s.Start.Sub(t.Start).Seconds() * 1000
		lead := int(off / total * barWidth)
		span := int(s.DurationMs / total * barWidth)
		if lead < 0 {
			lead = 0
		}
		if lead > barWidth {
			lead = barWidth
		}
		if span < 1 {
			span = 1
		}
		if lead+span > barWidth {
			span = barWidth - lead
			if span < 1 {
				span, lead = 1, barWidth-1
			}
		}
		bar := strings.Repeat(" ", lead) + strings.Repeat("█", span) + strings.Repeat(" ", barWidth-lead-span)
		label := strings.Repeat("  ", depth) + s.Name
		fmt.Fprintf(&b, "%-6s %-28s |%s| %8.2fms +%.2fms", s.Service, label, bar, s.DurationMs, off)
		if len(s.Attrs) > 0 {
			keys := make([]string, 0, len(s.Attrs))
			for k := range s.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(&b, " %s=%v", k, s.Attrs[k])
			}
		}
		if s.Error != "" {
			fmt.Fprintf(&b, " error=%q", s.Error)
		}
		b.WriteByte('\n')
		for _, c := range children[s.SpanID] {
			render(c, depth+1)
		}
	}
	for _, r := range roots {
		render(r, 0)
	}
	return b.String()
}

// ValidID reports whether an id from outside the process may be adopted
// as a request id or accepted as a session id: 1 to 64 characters from
// [A-Za-z0-9._-]. That is enough for UUIDs and derived ids, and admits no
// whitespace or quoting that could mangle a structured log line, nor any
// character a URL path would have to escape.
func ValidID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		switch c := id[i]; {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9', c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// NewID returns a fresh 16-hex-character random id.
func NewID() string { return newHex(8) }

// WithRequestID resolves a request's id once, before any route runs, and
// echoes it in the response's X-Request-Id header: a valid inbound id (set
// by ascgw or any fronting proxy) is adopted, so one id threads through
// gateway and backend logs; anything else gets a fresh id, written back to
// the request header, so every handler below reads the same id there.
func WithRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if !ValidID(id) {
			id = NewID()
			r.Header.Set("X-Request-Id", id)
		}
		w.Header().Set("X-Request-Id", id)
		next.ServeHTTP(w, r)
	})
}
