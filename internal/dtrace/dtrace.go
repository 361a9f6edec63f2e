// Package dtrace is a dependency-free distributed tracing subsystem for
// the asc serving fleet. It propagates W3C traceparent headers through
// client → ascgw → ascd, records spans for every meaningful serving stage
// (gateway routing, retries, batch chunks; backend queue wait, admission,
// compile, gang grouping, execution with its divergence peel count), and retains
// finished traces in a bounded per-process ring served as JSON from
// GET /debug/traces.
//
// Sampling is deterministic head sampling: the keep decision is a pure
// function of the trace id and the configured rate, so every tier of a
// fleet makes the same call for the same request without coordination.
// The inbound traceparent sampled flag forces a keep (the edge already
// decided), and finished traces that errored or ran slower than the slow
// threshold are always retained regardless of the sampling decision — the
// interesting traces are the ones you did not plan to look at.
//
// The package is deliberately span-granular, not cycle-granular: a traced
// request records a handful of stage spans, never per-instruction events,
// so tracing adds nothing to the simulation hot path (TestExecZeroAlloc
// holds with tracing compiled in).
package dtrace

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sync"
	"time"
)

// Options configures a Tracer. Zero fields take defaults.
type Options struct {
	// Service names the tier emitting spans ("ascgw", "ascd").
	Service string
	// Sample is the deterministic head-sampling rate in [0, 1]: the
	// fraction of trace ids whose traces are retained even when fast and
	// successful. 0 retains only errored/slow traces and traces whose
	// inbound traceparent carried the sampled flag.
	Sample float64
	// Slow is the always-keep latency threshold: a finished trace whose
	// root span ran at least this long is retained regardless of the
	// sampling decision (default 1s).
	Slow time.Duration
	// RingSize bounds the finished traces retained per process
	// (default 256; negative disables tracing entirely).
	RingSize int
}

// Tracer mints and finishes traces for one service. A nil Tracer is valid
// and records nothing.
type Tracer struct {
	service   string
	threshold uint64 // head-sample keep bound over the trace id's first 8 bytes
	slow      time.Duration
	ring      *ring
}

// The defaults New fills in for zero Options fields.
const (
	DefaultRingSize = 256
	DefaultSlow     = time.Second
)

// New builds a Tracer. It returns nil (a valid, disabled tracer) when
// opt.RingSize is negative.
func New(opt Options) *Tracer {
	if opt.RingSize < 0 {
		return nil
	}
	if opt.RingSize == 0 {
		opt.RingSize = DefaultRingSize
	}
	if opt.Slow <= 0 {
		opt.Slow = DefaultSlow
	}
	var threshold uint64
	switch {
	case opt.Sample >= 1:
		threshold = math.MaxUint64
	case opt.Sample > 0:
		threshold = uint64(opt.Sample * float64(math.MaxUint64))
	}
	return &Tracer{
		service:   opt.Service,
		threshold: threshold,
		slow:      opt.Slow,
		ring:      newRing(opt.RingSize),
	}
}

// Attr is one typed span attribute.
type Attr struct {
	Key string
	Val any
}

// Str builds a string attribute.
func Str(k, v string) Attr { return Attr{Key: k, Val: v} }

// Int builds an integer attribute.
func Int(k string, v int64) Attr { return Attr{Key: k, Val: v} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, Val: v} }

// Span is one stage of a trace being built. Spans are created through
// Active.StartSpan/Record; a nil Span is valid and ignores every method,
// which is how unsampled paths stay branch-cheap.
type Span struct {
	trace  *Active
	id     string // 16 hex chars
	parent string
	name   string
	start  time.Time
	end    time.Time
	errMsg string
	attrs  []Attr
}

// ID returns the span id in hex ("" on nil).
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	return s.id
}

// SetAttr appends typed attributes to the span.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, attrs...)
}

// End closes the span at now. Ending twice keeps the first end time.
func (s *Span) End() {
	if s == nil || !s.end.IsZero() {
		return
	}
	s.end = time.Now()
}

// EndErr closes the span and marks it (and its trace) as errored.
func (s *Span) EndErr(msg string) {
	if s == nil {
		return
	}
	s.errMsg = msg
	s.End()
	s.trace.setError()
}

// Active is a request-scoped trace being built. A nil *Active is valid
// and records nothing. Span recording is safe for concurrent use (batch
// sub-jobs record from parallel goroutines).
type Active struct {
	tracer    *Tracer
	traceID   string // 32 hex chars
	requestID string
	sampled   bool // head-keep decision (inbound flag or deterministic)

	mu     sync.Mutex
	spans  []*Span
	root   *Span
	hasErr bool
}

// StartTrace begins a trace for one request: a valid inbound traceparent
// is adopted (same trace id, inbound span as the root's parent, sampled
// flag honored); anything else mints a fresh trace id. name becomes the
// root span ("run", "batch"), requestID ties the trace to X-Request-Id.
// Returns nil when the tracer is nil (tracing disabled).
func (tr *Tracer) StartTrace(traceparent, name, requestID string) *Active {
	if tr == nil {
		return nil
	}
	traceID, parentSpan, flagSampled, ok := ParseTraceparent(traceparent)
	if !ok {
		traceID = newHex(16)
		parentSpan, flagSampled = "", false
	}
	a := &Active{
		tracer:    tr,
		traceID:   traceID,
		requestID: requestID,
		sampled:   flagSampled || tr.headSample(traceID),
	}
	a.root = &Span{trace: a, id: newHex(8), parent: parentSpan, name: name, start: time.Now()}
	a.spans = append(a.spans, a.root)
	return a
}

// headSample is the deterministic keep decision: a pure function of the
// trace id, identical on every tier configured with the same rate.
func (tr *Tracer) headSample(traceID string) bool {
	if tr.threshold == 0 {
		return false
	}
	if tr.threshold == math.MaxUint64 {
		return true
	}
	raw, err := hex.DecodeString(traceID[:16])
	if err != nil || len(raw) < 8 {
		return false
	}
	return binary.BigEndian.Uint64(raw) < tr.threshold
}

// TraceID returns the trace id in hex ("" on nil).
func (a *Active) TraceID() string {
	if a == nil {
		return ""
	}
	return a.traceID
}

// Sampled reports the head-sampling decision. Exemplars should reference
// only sampled traces — they are the ones guaranteed retrievable from
// /debug/traces.
func (a *Active) Sampled() bool {
	return a != nil && a.sampled
}

// Root returns the trace's root span.
func (a *Active) Root() *Span {
	if a == nil {
		return nil
	}
	return a.root
}

// Traceparent renders the outbound W3C header for a downstream hop, with
// parent (or the root span when parent is nil) as the calling span. The
// sampled flag carries this tier's keep decision so differently configured
// tiers still agree.
func (a *Active) Traceparent(parent *Span) string {
	if a == nil {
		return ""
	}
	spanID := a.root.ID()
	if parent != nil {
		spanID = parent.id
	}
	return FormatTraceparent(a.traceID, spanID, a.sampled)
}

// StartSpan opens a child span under parent (the root when parent is nil).
func (a *Active) StartSpan(name string, parent *Span, attrs ...Attr) *Span {
	if a == nil {
		return nil
	}
	return a.add(name, parent, time.Now(), time.Time{}, attrs)
}

// Record appends an already-bounded span — for stages whose interval was
// measured before the trace knew about them (queue wait, for instance).
func (a *Active) Record(name string, parent *Span, start, end time.Time, attrs ...Attr) *Span {
	if a == nil {
		return nil
	}
	return a.add(name, parent, start, end, attrs)
}

func (a *Active) add(name string, parent *Span, start, end time.Time, attrs []Attr) *Span {
	parentID := a.root.id
	if parent != nil {
		parentID = parent.id
	}
	s := &Span{trace: a, id: newHex(8), parent: parentID, name: name, start: start, end: end, attrs: attrs}
	a.mu.Lock()
	a.spans = append(a.spans, s)
	a.mu.Unlock()
	return s
}

func (a *Active) setError() {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.hasErr = true
	a.mu.Unlock()
}

// SetError marks the trace as errored without attributing the error to a
// particular span (always-keep applies).
func (a *Active) SetError() { a.setError() }

// Finish closes the root span, decides retention (sampled, errored, or
// slow), and pushes the finished trace into the tracer's ring. It is safe
// to call once per trace; later span mutations are not observed.
func (a *Active) Finish() {
	if a == nil {
		return
	}
	a.root.End()
	dur := a.root.end.Sub(a.root.start)
	a.mu.Lock()
	keep := a.sampled || a.hasErr || dur >= a.tracer.slow
	if !keep {
		a.mu.Unlock()
		return
	}
	ft := &FinishedTrace{
		TraceID:    a.traceID,
		RequestID:  a.requestID,
		Service:    a.tracer.service,
		Name:       a.root.name,
		Start:      a.root.start,
		DurationMs: dur.Seconds() * 1000,
		Error:      a.hasErr,
		Sampled:    a.sampled,
		Spans:      make([]SpanRec, 0, len(a.spans)),
	}
	for _, s := range a.spans {
		end := s.end
		if end.IsZero() {
			end = a.root.end // an unclosed span inherits the trace end
		}
		rec := SpanRec{
			SpanID:     s.id,
			ParentID:   s.parent,
			Service:    a.tracer.service,
			Name:       s.name,
			Start:      s.start,
			DurationMs: end.Sub(s.start).Seconds() * 1000,
			Error:      s.errMsg,
		}
		if len(s.attrs) > 0 {
			rec.Attrs = make(map[string]any, len(s.attrs))
			for _, at := range s.attrs {
				rec.Attrs[at.Key] = at.Val
			}
		}
		ft.Spans = append(ft.Spans, rec)
	}
	a.mu.Unlock()
	a.tracer.ring.push(ft)
}

// Lookup returns the retained finished trace with the given id, or nil.
func (tr *Tracer) Lookup(traceID string) *FinishedTrace {
	if tr == nil {
		return nil
	}
	return tr.ring.byID(traceID)
}

// newHex returns 2n cryptographically random hex characters.
func newHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		// Matches the request-id fallback: a constant id degrades
		// correlation, nothing else.
		return hex.EncodeToString(make([]byte, n))
	}
	return hex.EncodeToString(b)
}
