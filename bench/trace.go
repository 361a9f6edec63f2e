package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Tracing for the per-layer run. Spans come from the benchmark's own code,
// around its calls into each layer: a closed-loop call is a root span whose
// children are the HTTP exchanges (recorded by a RoundTripper under the
// client) and the client-side gaps around them (request encoding before the
// first exchange, response decoding after the last). Spans are kept in
// memory and written out when the run ends; summarize reports each span
// name's total and self time (a span minus its direct children).

// span is one recorded interval. Times are nanoseconds since the recorder
// started; Parent is -1 for a call's root.
type span struct {
	Name   string `json:"name"`
	Call   int64  `json:"call"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Bytes is the request plus response body size of an "http" span.
	Bytes int64 `json:"bytes,omitempty"`
}

// recorder collects the spans of a traced window.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) since(t time.Time) int64 { return t.Sub(r.t0).Nanoseconds() }

// callTrace accumulates one call's spans on the calling goroutine (the
// client performs its HTTP exchanges synchronously on it).
type callTrace struct {
	rec   *recorder
	call  int64
	start time.Time
	spans []span // children of the root, in order
}

type traceKey struct{}

// startCall opens a call's root span and returns the context that carries
// it to the transport.
func (r *recorder) startCall(ctx context.Context, call int64) (context.Context, *callTrace) {
	ct := &callTrace{rec: r, call: call, start: time.Now()}
	return context.WithValue(ctx, traceKey{}, ct), ct
}

// child records a child span of the call's root.
func (ct *callTrace) child(name string, start, end time.Time, bytes int64) {
	ct.spans = append(ct.spans, span{Name: name, Start: ct.rec.since(start), End: ct.rec.since(end), Bytes: bytes})
}

// finish closes the root, derives the client-side gaps, and hands the
// call's spans to the recorder.
func (ct *callTrace) finish(name string) {
	end := time.Now()
	r := ct.rec
	var kids []span
	prev := r.since(ct.start)
	for i, s := range ct.spans {
		gap := "client.between"
		if i == 0 {
			gap = "client.encode"
		}
		if s.Start > prev {
			kids = append(kids, span{Name: gap, Start: prev, End: s.Start})
		}
		kids = append(kids, s)
		prev = s.End
	}
	if last := r.since(end); len(ct.spans) > 0 && last > prev {
		kids = append(kids, span{Name: "client.decode", Start: prev, End: last})
	}
	r.record(name, ct.call, ct.start, end, kids)
}

// record adds a root span and its children.
func (r *recorder) record(name string, call int64, start, end time.Time, kids []span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	root := span{Name: name, Call: call, ID: len(r.spans), Parent: -1, Start: r.since(start), End: r.since(end)}
	r.spans = append(r.spans, root)
	for _, k := range kids {
		k.Call, k.ID, k.Parent = call, len(r.spans), root.ID
		r.spans = append(r.spans, k)
	}
}

// spanTransport records each HTTP exchange of a traced call as an "http"
// span from the start of the round trip to the end of the response body.
type spanTransport struct{ base http.RoundTripper }

func (t spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ct, _ := req.Context().Value(traceKey{}).(*callTrace)
	if ct == nil {
		return t.base.RoundTrip(req)
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		ct.child("http", start, time.Now(), 0)
		return nil, err
	}
	out := req.ContentLength
	if out < 0 {
		out = 0
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, ct: ct, start: start, out: out}
	return resp, nil
}

// spanBody closes the exchange's span when the client finishes the body.
type spanBody struct {
	io.ReadCloser
	ct    *callTrace
	start time.Time
	out   int64
	in    int64
	done  bool
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.in += int64(n)
	if err == io.EOF {
		b.end()
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.end()
	return b.ReadCloser.Close()
}

func (b *spanBody) end() {
	if !b.done {
		b.done = true
		b.ct.child("http", b.start, time.Now(), b.out+b.in)
	}
}

// spanSummary is one span name's aggregate over a traced run.
type spanSummary struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// summarize aggregates total and self time per span name.
func (r *recorder) summarize() map[string]spanSummary {
	r.mu.Lock()
	defer r.mu.Unlock()
	childNs := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			childNs[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]spanSummary{}
	for i, s := range r.spans {
		sum := out[s.Name]
		sum.Count++
		sum.TotalMs += float64(s.End-s.Start) / 1e6
		sum.SelfMs += float64(s.End-s.Start-childNs[i]) / 1e6
		out[s.Name] = sum
	}
	return out
}

// durations returns the durations in microseconds of every span named name.
func (r *recorder) durations(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// bytesPerCall is the mean request-plus-response body size of a call.
func (r *recorder) bytesPerCall() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var bytes, calls float64
	for _, s := range r.spans {
		if s.Name == "call" {
			calls++
		}
		bytes += float64(s.Bytes)
	}
	return ratio(bytes, calls)
}

// write stores the spans as JSON at path, creating its directory.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
