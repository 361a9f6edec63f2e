package dtrace

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestParseTraceparent(t *testing.T) {
	tid := "4bf92f3577b34da6a3ce929d0e0e4736"
	sid := "00f067aa0ba902b7"
	cases := []struct {
		in          string
		wantOK      bool
		wantSampled bool
	}{
		{"00-" + tid + "-" + sid + "-01", true, true},
		{"00-" + tid + "-" + sid + "-00", true, false},
		{"00-" + tid + "-" + sid + "-03", true, true},
		{"  00-" + tid + "-" + sid + "-01  ", true, true}, // whitespace tolerated
		{"", false, false},
		{"00-" + tid + "-" + sid, false, false},                             // missing flags
		{"ff-" + tid + "-" + sid + "-01", false, false},                     // bad version
		{"00-" + strings.ToUpper(tid) + "-" + sid + "-01", false, false},    // uppercase hex
		{"00-" + tid[:31] + "-" + sid + "-01", false, false},                // short trace id
		{"00-" + strings.Repeat("0", 32) + "-" + sid + "-01", false, false}, // zero trace id
		{"00-" + tid + "-" + strings.Repeat("0", 16) + "-01", false, false}, // zero span id
		{"00-" + strings.Repeat("g", 32) + "-" + sid + "-01", false, false}, // non-hex
		{"00-" + tid + "-" + sid + "-01-extra", false, false},               // extra field
		{"00-" + tid + "-" + sid + "-zz", false, false},                     // non-hex flags
		{FormatTraceparent(tid, sid, true), true, true},                     // round-trip sampled
		{FormatTraceparent(tid, sid, false), true, false},                   // round-trip unsampled
	}
	for _, c := range cases {
		gotTID, gotSID, sampled, ok := ParseTraceparent(c.in)
		if ok != c.wantOK {
			t.Errorf("ParseTraceparent(%q) ok = %v, want %v", c.in, ok, c.wantOK)
			continue
		}
		if !ok {
			continue
		}
		if gotTID != tid || gotSID != sid || sampled != c.wantSampled {
			t.Errorf("ParseTraceparent(%q) = (%q, %q, %v), want (%q, %q, %v)",
				c.in, gotTID, gotSID, sampled, tid, sid, c.wantSampled)
		}
	}
}

// TestHeadSampleDeterministic pins that the keep decision is a pure
// function of the trace id: two tracers at the same rate agree, rate 1
// keeps everything, rate 0 keeps nothing (absent flag/error/slow).
func TestHeadSampleDeterministic(t *testing.T) {
	a := New(Options{Sample: 0.5})
	b := New(Options{Sample: 0.5})
	ids := []string{
		"00000000000000010000000000000000", // tiny prefix: kept at 0.5
		"ffffffffffffffff0000000000000000", // max prefix: dropped at 0.5
		"4bf92f3577b34da6a3ce929d0e0e4736",
		"80000000000000000000000000000000", // exactly the 0.5 boundary region
	}
	for _, id := range ids {
		if a.headSample(id) != b.headSample(id) {
			t.Errorf("tracers at same rate disagree on %s", id)
		}
	}
	if !a.headSample(ids[0]) {
		t.Errorf("id %s should be kept at rate 0.5", ids[0])
	}
	if a.headSample(ids[1]) {
		t.Errorf("id %s should be dropped at rate 0.5", ids[1])
	}
	all := New(Options{Sample: 1})
	none := New(Options{Sample: 0})
	for _, id := range ids {
		if !all.headSample(id) {
			t.Errorf("rate 1 dropped %s", id)
		}
		if none.headSample(id) {
			t.Errorf("rate 0 kept %s", id)
		}
	}
}

func TestStartTraceAdoptsInbound(t *testing.T) {
	tr := New(Options{Service: "ascd", Sample: 0})
	tid := "4bf92f3577b34da6a3ce929d0e0e4736"
	sid := "00f067aa0ba902b7"
	a := tr.StartTrace(FormatTraceparent(tid, sid, true), "run", "req-1")
	if a.TraceID() != tid {
		t.Fatalf("trace id = %q, want adopted %q", a.TraceID(), tid)
	}
	if !a.Sampled() {
		t.Fatal("inbound sampled flag must force keep even at rate 0")
	}
	if a.Root().parent != sid {
		t.Fatalf("root parent = %q, want inbound span %q", a.Root().parent, sid)
	}
	// Outbound header: same trace, root as parent, sampled flag carried.
	out := a.Traceparent(nil)
	gotTID, gotSID, sampled, ok := ParseTraceparent(out)
	if !ok || gotTID != tid || gotSID != a.Root().ID() || !sampled {
		t.Fatalf("outbound traceparent %q wrong (ok=%v tid=%q sid=%q sampled=%v)", out, ok, gotTID, gotSID, sampled)
	}

	// A malformed inbound header mints a fresh 32-hex id.
	b := tr.StartTrace("garbage", "run", "req-2")
	if len(b.TraceID()) != 32 || b.TraceID() == tid {
		t.Fatalf("minted trace id %q invalid", b.TraceID())
	}
}

func TestFinishRetention(t *testing.T) {
	tr := New(Options{Service: "ascd", Sample: 0, Slow: time.Hour})

	// Fast, successful, unsampled: dropped.
	a := tr.StartTrace("", "run", "r1")
	a.StartSpan("compile", nil).End()
	a.Finish()
	if got := len(tr.List(Filter{})); got != 0 {
		t.Fatalf("unsampled trace retained, ring has %d", got)
	}

	// Errored: kept despite rate 0.
	b := tr.StartTrace("", "run", "r2")
	sp := b.StartSpan("exec", nil)
	sp.EndErr("boom")
	b.Finish()
	got := tr.Lookup(b.TraceID())
	if got == nil {
		t.Fatal("errored trace not retained")
	}
	if !got.Error {
		t.Fatal("finished trace not marked errored")
	}
	var execRec *SpanRec
	for i := range got.Spans {
		if got.Spans[i].Name == "exec" {
			execRec = &got.Spans[i]
		}
	}
	if execRec == nil || execRec.Error != "boom" {
		t.Fatalf("exec span error not recorded: %+v", execRec)
	}

	// Slow: kept despite rate 0.
	fast := New(Options{Service: "ascd", Sample: 0, Slow: time.Nanosecond})
	c := fast.StartTrace("", "run", "r3")
	time.Sleep(time.Microsecond)
	c.Finish()
	if fast.Lookup(c.TraceID()) == nil {
		t.Fatal("slow trace not retained")
	}

	// Sampled: kept.
	all := New(Options{Service: "ascd", Sample: 1})
	d := all.StartTrace("", "run", "r4")
	d.Finish()
	ft := all.Lookup(d.TraceID())
	if ft == nil || !ft.Sampled {
		t.Fatal("sampled trace not retained")
	}
	if ft.RequestID != "r4" || ft.Service != "ascd" || ft.Name != "run" {
		t.Fatalf("finished trace identity wrong: %+v", ft)
	}
}

func TestRecordAndUnclosedSpans(t *testing.T) {
	tr := New(Options{Sample: 1})
	a := tr.StartTrace("", "run", "")
	start := time.Now().Add(-50 * time.Millisecond)
	a.Record("queue_wait", nil, start, start.Add(40*time.Millisecond), Int("depth", 3))
	open := a.StartSpan("exec", nil) // never ended: inherits trace end
	_ = open
	a.Finish()
	ft := tr.Lookup(a.TraceID())
	if ft == nil {
		t.Fatal("trace not retained")
	}
	byName := map[string]SpanRec{}
	for _, s := range ft.Spans {
		byName[s.Name] = s
	}
	qw := byName["queue_wait"]
	if qw.DurationMs < 39 || qw.DurationMs > 41 {
		t.Fatalf("queue_wait duration %.2fms, want ~40ms", qw.DurationMs)
	}
	if qw.Attrs["depth"] != int64(3) {
		t.Fatalf("queue_wait attrs = %v", qw.Attrs)
	}
	if qw.ParentID != ft.Spans[0].SpanID {
		t.Fatal("nil parent must default to the root span")
	}
	if ex := byName["exec"]; ex.DurationMs < 0 {
		t.Fatalf("unclosed span got negative duration %.2f", ex.DurationMs)
	}
}

func TestRingEvictionAndFilters(t *testing.T) {
	tr := New(Options{Sample: 1, RingSize: 4})
	var ids []string
	for i := 0; i < 6; i++ {
		a := tr.StartTrace("", "run", "")
		if i == 2 {
			a.SetError()
		}
		a.Finish()
		ids = append(ids, a.TraceID())
	}
	if tr.Lookup(ids[0]) != nil || tr.Lookup(ids[1]) != nil {
		t.Fatal("oldest traces should be evicted from a size-4 ring")
	}
	if tr.Lookup(ids[5]) == nil {
		t.Fatal("newest trace missing")
	}
	got := tr.List(Filter{})
	if len(got) != 4 {
		t.Fatalf("List returned %d traces, want 4", len(got))
	}
	if got[0].TraceID != ids[5] {
		t.Fatal("List must return newest first")
	}
	errs := tr.List(Filter{ErrorOnly: true})
	if len(errs) != 1 || errs[0].TraceID != ids[2] {
		t.Fatalf("error filter returned %d traces", len(errs))
	}
	if n := len(tr.List(Filter{Limit: 2})); n != 2 {
		t.Fatalf("limit 2 returned %d", n)
	}
	if n := len(tr.List(Filter{TraceID: ids[4]})); n != 1 {
		t.Fatalf("trace id filter returned %d", n)
	}
	if n := len(tr.List(Filter{MinDuration: time.Hour})); n != 0 {
		t.Fatalf("min duration filter returned %d", n)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	a := tr.StartTrace("", "run", "r")
	if a != nil {
		t.Fatal("nil tracer must start nil traces")
	}
	// Every method on nil Active / nil Span is a no-op.
	a.SetError()
	a.Finish()
	if a.TraceID() != "" || a.Sampled() || a.Root() != nil || a.Traceparent(nil) != "" {
		t.Fatal("nil Active accessors not zero")
	}
	sp := a.StartSpan("x", nil)
	sp.SetAttr(Str("k", "v"))
	sp.End()
	sp.EndErr("e")
	if sp.ID() != "" {
		t.Fatal("nil span id not empty")
	}
	if tr.Lookup("x") != nil || tr.List(Filter{}) != nil {
		t.Fatal("nil tracer lookups not empty")
	}
	if New(Options{RingSize: -1}) != nil {
		t.Fatal("negative RingSize must disable tracing")
	}

	ctx := ContextWith(context.Background(), nil, nil)
	if got, _ := FromContext(ctx); got != nil {
		t.Fatal("nil trace must not be stored in context")
	}
	ctx2, sp2 := Start(ctx, "stage")
	if ctx2 != ctx || sp2 != nil {
		t.Fatal("Start on untraced context must be identity")
	}
}

func TestContextThreading(t *testing.T) {
	tr := New(Options{Sample: 1})
	a := tr.StartTrace("", "batch", "")
	ctx := ContextWith(context.Background(), a, a.Root())
	ctx, outer := Start(ctx, "chunk", Str("digest", "abc"))
	_, inner := Start(ctx, "exec")
	inner.End()
	outer.End()
	a.Finish()
	ft := tr.Lookup(a.TraceID())
	byName := map[string]SpanRec{}
	for _, s := range ft.Spans {
		byName[s.Name] = s
	}
	if byName["chunk"].ParentID != byName["batch"].SpanID {
		t.Fatal("chunk must parent to root")
	}
	if byName["exec"].ParentID != byName["chunk"].SpanID {
		t.Fatal("exec must parent to chunk via context")
	}
	if byName["chunk"].Attrs["digest"] != "abc" {
		t.Fatalf("chunk attrs = %v", byName["chunk"].Attrs)
	}
}

func TestStitch(t *testing.T) {
	gw := New(Options{Service: "ascgw", Sample: 1})
	be := New(Options{Service: "ascd", Sample: 1})

	g := gw.StartTrace("", "run", "req-9")
	fwd := g.StartSpan("forward", nil, Str("backend", "b1"))
	// The backend adopts the header whose parent is the forward span.
	b := be.StartTrace(g.Traceparent(fwd), "run", "req-9")
	b.StartSpan("exec", nil).End()
	b.Finish()
	fwd.End()
	g.Finish()

	st := Stitch(gw.Lookup(g.TraceID()), be.Lookup(b.TraceID()))
	if st.TraceID != g.TraceID() {
		t.Fatal("stitched trace id must be the gateway's")
	}
	services := map[string]bool{}
	var beRoot *SpanRec
	for i, s := range st.Spans {
		services[s.Service] = true
		if s.Service == "ascd" && s.Name == "run" {
			beRoot = &st.Spans[i]
		}
	}
	if !services["ascgw"] || !services["ascd"] {
		t.Fatalf("stitched spans missing a tier: %v", services)
	}
	if beRoot == nil || beRoot.ParentID != fwd.ID() {
		t.Fatal("backend root must parent to the gateway forward span")
	}

	// Stitching must not mutate the gateway's retained copy.
	if n := len(gw.Lookup(g.TraceID()).Spans); n != 2 {
		t.Fatalf("stitch mutated the retained trace (%d spans)", n)
	}
	// nil base: first remote seeds identity.
	if st2 := Stitch(nil, be.Lookup(b.TraceID())); st2 == nil || st2.Service != "ascd" {
		t.Fatal("nil base stitch must seed from the remote")
	}
	if Stitch(nil) != nil {
		t.Fatal("stitch of nothing must be nil")
	}

	wf := Waterfall(st)
	for _, want := range []string{"trace " + g.TraceID(), "ascgw", "ascd", "forward", "exec", "backend=b1", "request_id=req-9"} {
		if !strings.Contains(wf, want) {
			t.Errorf("waterfall missing %q:\n%s", want, wf)
		}
	}
	// The backend root is a child of forward: rendered indented beneath it.
	fwdLine, beLine := -1, -1
	for i, line := range strings.Split(wf, "\n") {
		if strings.Contains(line, "forward") {
			fwdLine = i
		}
		if strings.Contains(line, "ascd") && strings.Contains(line, " run") {
			beLine = i
		}
	}
	if fwdLine < 0 || beLine < 0 || beLine <= fwdLine {
		t.Fatalf("waterfall tree order wrong (forward@%d, backend run@%d):\n%s", fwdLine, beLine, wf)
	}
}

func TestHandler(t *testing.T) {
	tr := New(Options{Service: "ascd", Sample: 1})
	a := tr.StartTrace("", "run", "req-h")
	a.Finish()

	rec := httptest.NewRecorder()
	serve(tr, rec, httptest.NewRequest("GET", "/debug/traces", nil))
	var dump TraceDump
	if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if dump.Service != "ascd" || len(dump.Traces) != 1 || dump.Traces[0].TraceID != a.TraceID() {
		t.Fatalf("dump = %+v", dump)
	}

	rec = httptest.NewRecorder()
	serve(tr, rec, httptest.NewRequest("GET", "/debug/traces?trace=nope", nil))
	json.Unmarshal(rec.Body.Bytes(), &dump)
	if len(dump.Traces) != 0 {
		t.Fatal("trace filter must exclude non-matching ids")
	}

	rec = httptest.NewRecorder()
	serve(tr, rec, httptest.NewRequest("GET", "/debug/traces?min_ms=abc", nil))
	if rec.Code != 400 {
		t.Fatalf("bad min_ms should 400, got %d", rec.Code)
	}

	rec = httptest.NewRecorder()
	serve(tr, rec, httptest.NewRequest("POST", "/debug/traces", nil))
	if rec.Code != 405 {
		t.Fatalf("POST should 405, got %d", rec.Code)
	}

	// A nil tracer serves an empty dump rather than panicking.
	var nilTr *Tracer
	rec = httptest.NewRecorder()
	serve(nilTr, rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil || len(dump.Traces) != 0 {
		t.Fatalf("nil tracer dump: err=%v traces=%d", err, len(dump.Traces))
	}
}

// TestValidID pins the id rule both tiers apply to inbound request ids and
// session path segments: the ^[A-Za-z0-9._-]+$ charset, at most 64 bytes.
func TestValidID(t *testing.T) {
	for _, id := range []string{"a", "req-9", "s0123456789abcdef", "A.b_c-D", strings.Repeat("x", 64), NewID()} {
		if !ValidID(id) {
			t.Errorf("ValidID(%q) = false, want true", id)
		}
	}
	for _, id := range []string{"", strings.Repeat("x", 65), "abc?x=1", "a/b", "a b", "a%3F", "é", "a\"b", "a\nb"} {
		if ValidID(id) {
			t.Errorf("ValidID(%q) = true, want false", id)
		}
	}
}

// serve answers one /debug/traces request as ascd does.
func serve(tr *Tracer, w http.ResponseWriter, r *http.Request) { Serve(w, r, "ascd", tr, nil) }
