package shell

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dtrace"
)

// TestGateAdmitCloseWait: admissions racing a Close are either refused as
// draining or counted before Close returns, so Wait outlasts every one;
// Wait gives up at its context's deadline while a unit is outstanding.
func TestGateAdmitCloseWait(t *testing.T) {
	var g Gate
	var inflight atomic.Int64
	var admitted, finished sync.WaitGroup
	var mu sync.Mutex
	running := 0
	for i := 0; i < 64; i++ {
		admitted.Add(1)
		go func() {
			defer admitted.Done()
			ok, draining, _ := g.Admit(&inflight, 1, 64)
			if ok == draining {
				t.Errorf("Admit = (%v, %v): want exactly one of admitted or draining", ok, draining)
			}
			if !ok {
				return
			}
			mu.Lock()
			running++
			mu.Unlock()
			finished.Add(1)
			go func() {
				defer finished.Done()
				time.Sleep(10 * time.Millisecond)
				mu.Lock()
				running--
				mu.Unlock()
				g.Done(&inflight, 1)
			}()
		}()
	}
	if !g.Close() || g.Close() {
		t.Fatal("only the first Close closes the gate")
	}
	admitted.Wait()
	if err := g.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if running != 0 {
		t.Errorf("Wait returned with %d admitted units running", running)
	}
	mu.Unlock()
	finished.Wait()
	if ok, draining, _ := g.Admit(&inflight, 1, 64); ok || !draining {
		t.Errorf("a closed gate admitted: (%v, %v)", ok, draining)
	}

	var open Gate
	var held atomic.Int64
	if ok, draining, load := open.Admit(&held, 2, 1); ok || draining || load != 0 {
		t.Errorf("a charge past the limit admitted: (%v, %v, %d)", ok, draining, load)
	}
	open.Admit(&held, 1, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := open.Wait(ctx); err == nil {
		t.Error("Wait returned nil with a unit outstanding")
	}
	open.Done(&held, 1)
	if n := held.Load(); n != 0 {
		t.Errorf("counter = %d after Done, want 0", n)
	}
}

// TestGateAdmitBound: concurrent admissions against one limit never pass
// it together. 64 goroutines admit against limit 4 and hold what they
// get until every one has tried: exactly 4 succeed, and no admitted
// holder ever reads the counter above 4.
func TestGateAdmitBound(t *testing.T) {
	const limit = 4
	var g Gate
	var inflight, admitted, peak atomic.Int64
	var tried sync.WaitGroup
	start, release := make(chan struct{}), make(chan struct{})
	var holders sync.WaitGroup
	for i := 0; i < 64; i++ {
		tried.Add(1)
		holders.Add(1)
		go func() {
			defer holders.Done()
			<-start
			ok, draining, _ := g.Admit(&inflight, 1, limit)
			if draining {
				t.Error("an open gate reported draining")
			}
			if ok {
				admitted.Add(1)
				n := inflight.Load()
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
			}
			tried.Done()
			if ok {
				<-release
				g.Done(&inflight, 1)
			}
		}()
	}
	close(start)
	tried.Wait()
	if n := admitted.Load(); n != limit {
		t.Errorf("%d admissions succeeded against limit %d", n, limit)
	}
	if n := inflight.Load(); n != limit {
		t.Errorf("counter = %d with every admission held, want %d", n, limit)
	}
	if n := peak.Load(); n > limit {
		t.Errorf("an admitted holder read the counter at %d, above the limit %d", n, limit)
	}
	close(release)
	holders.Wait()
	if n := inflight.Load(); n != 0 {
		t.Errorf("counter = %d after every Done, want 0", n)
	}
}

// TestGateHealth: 200 "ok", 503 with the tier's reason, and 503
// "draining" once closed, whatever else is wrong.
func TestGateHealth(t *testing.T) {
	var g Gate
	for _, c := range []struct {
		close      bool
		down, want string
		status     int
	}{
		{false, "", "ok\n", 200},
		{false, "no healthy backends", "no healthy backends\n", 503},
		{true, "no healthy backends", "draining\n", 503},
		{true, "", "draining\n", 503},
	} {
		if c.close {
			g.Close()
		}
		rec := httptest.NewRecorder()
		g.Health(rec, c.down)
		if rec.Code != c.status || rec.Body.String() != c.want {
			t.Errorf("Health(%q) after close=%v: %d %q, want %d %q", c.down, c.close, rec.Code, rec.Body, c.status, c.want)
		}
	}
}

// TestRequestPrelude pins the prelude's answers: a 405 that starts no
// trace, a typed 400 for a body that is not one JSON value or is over the
// cap, an empty body as the zero value only on an EmptyOK route, and the
// raw body held until Finish only on a Keep route.
func TestRequestPrelude(t *testing.T) {
	sh := &Shell{
		Log:     slog.New(slog.NewTextHandler(io.Discard, nil)),
		Tracer:  dtrace.New(dtrace.Options{Service: "test"}),
		MaxBody: 64,
	}
	call := func(method, body string, rt Route) (*httptest.ResponseRecorder, Call, bool, map[string]int) {
		rec := httptest.NewRecorder()
		var v map[string]int
		c, ok := sh.Request(rec, httptest.NewRequest(method, "/v1/x", strings.NewReader(body)), rt, &v)
		return rec, c, ok, v
	}
	rt := Route{Name: "x", Allow: "POST"}

	rec, c, ok, _ := call(http.MethodGet, "", rt)
	if ok || rec.Code != 405 || rec.Body.String() != "{\"error\":\"POST required\"}\n" || rec.Header().Get("X-Trace-Id") != "" || c.Tr != nil {
		t.Errorf("GET: ok=%v %d %q trace %q", ok, rec.Code, rec.Body, rec.Header().Get("X-Trace-Id"))
	}
	for _, body := range []string{"", `{"a":1} x`, `{"a":"` + strings.Repeat("x", 64) + `"}`} {
		rec, c, ok, _ = call(http.MethodPost, body, rt)
		if ok || rec.Code != 400 || !strings.HasPrefix(rec.Body.String(), `{"error":"decoding request: `) || rec.Header().Get("X-Trace-Id") == "" {
			t.Errorf("POST %q: ok=%v %d %q", body, ok, rec.Code, rec.Body)
		}
		c.Finish()
	}

	_, c, ok, v := call(http.MethodPost, " \n", Route{Name: "x", Allow: "POST", EmptyOK: true})
	if !ok || v != nil || c.Body != nil {
		t.Errorf("EmptyOK whitespace body: ok=%v v=%v body kept=%v", ok, v, c.Body != nil)
	}
	c.Finish()
	_, c, ok, v = call(http.MethodPost, `{"a":1}`, rt)
	if !ok || v["a"] != 1 || c.Body != nil {
		t.Errorf("POST: ok=%v v=%v body kept=%v", ok, v, c.Body != nil)
	}
	c.Finish()
	// A kept body is being forwarded: it must survive Finish and the
	// requests that follow, so it never goes back to the body pool.
	_, c, ok, _ = call(http.MethodPost, `{"a":1}`, Route{Name: "x", Allow: "POST", Keep: true})
	c.Finish()
	for i := 0; i < 8; i++ {
		_, other, _, _ := call(http.MethodPost, `{"b":2}`, rt)
		other.Finish()
	}
	if !ok || string(c.Body) != `{"a":1}` {
		t.Fatalf("Keep: ok=%v body=%q after later requests", ok, c.Body)
	}
}
