// Package shell is how a serving tier speaks HTTP, shared by ascd
// (internal/server) and ascgw (internal/gateway): the request prelude of
// every POST route, the latency observer, the drain gate, and the daemon
// lifecycle of both binaries. The tiers keep only what differs: routing
// versus executing, their admission limits, and their retry hints. JSON
// bodies are written and read by internal/wire.
package shell

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dtrace"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Shell is what a tier's handlers share: its logger and tracer, its
// request body cap, its request-duration histogram, and its drain gate.
type Shell struct {
	Log     *slog.Logger
	Tracer  *dtrace.Tracer
	MaxBody int64
	Latency *obs.Histogram
	Gate    Gate
}

// Route names one POST route for the prelude.
type Route struct {
	Name    string // the trace's root span
	Allow   string // the methods a 405 names
	Keep    bool   // keep the raw body in Call.Body, to forward it
	EmptyOK bool   // decode an empty or all-whitespace body as the zero value
}

// Call is one request past the prelude.
type Call struct {
	ID   string // X-Request-Id, forwarded on every backend hop
	Tr   *dtrace.Active
	Log  *slog.Logger
	Body []byte // the raw body, for a Keep route
}

// Finish ends the request's trace. It is safe on a refused call.
func (c *Call) Finish() { c.Tr.Finish() }

// Request runs the prelude of a POST route: it checks the method (a 405
// starts no trace), resolves the request id, starts the trace, reads the
// body bounded by MaxBody, and decodes it into v with wire.Unmarshal,
// answering 400 when that fails. ok=false means the refusal has been
// written; the caller still finishes the call. The trace adopts a valid
// inbound traceparent (from ascgw or any W3C-propagating client), and its
// id is echoed in X-Trace-Id and threaded through the call's logger, so a
// log line, an exemplar and GET /debug/traces?trace=<id> meet at one id.
func (sh *Shell) Request(w http.ResponseWriter, r *http.Request, rt Route, v any) (c Call, ok bool) {
	c.ID = r.Header.Get("X-Request-Id") // resolved by dtrace.WithRequestID
	c.Log = sh.Log.With("request_id", c.ID)
	if r.Method != http.MethodPost {
		wire.WriteError(w, http.StatusMethodNotAllowed, "%s required", rt.Allow)
		return c, false
	}
	if c.Tr = sh.Tracer.StartTrace(r.Header.Get("traceparent"), rt.Name, c.ID); c.Tr != nil {
		w.Header().Set("X-Trace-Id", c.Tr.TraceID())
		c.Log = c.Log.With("trace_id", c.Tr.TraceID(), "span_id", c.Tr.Root().ID())
	}
	body, err := wire.ReadBody(http.MaxBytesReader(w, r.Body, sh.MaxBody), r.ContentLength, sh.MaxBody)
	if err == nil && (!rt.EmptyOK || len(bytes.TrimSpace(body.Bytes())) > 0) {
		err = wire.Unmarshal(body.Bytes(), v)
	}
	// Neither decoder keeps a reference into the bytes, so a body nobody
	// forwards is free once decoded. A kept body never goes back to the
	// pool: the transport forwarding it may outlive the request.
	if rt.Keep && err == nil {
		c.Body = body.Bytes()
	} else {
		body.Release()
	}
	if err != nil {
		c.Log.Warn("request rejected", "reason", "bad request body", "error", err.Error())
		c.Tr.SetError()
		wire.WriteError(w, http.StatusBadRequest, "decoding request: %v", err)
		return c, false
	}
	return c, true
}

// ObserveLatency records a request duration, attaching a trace-id
// exemplar when the request's trace is sampled: sampled traces are the
// ones sure to be retrievable from /debug/traces, so the exemplar is a
// live link from the histogram bucket to a full waterfall.
func (sh *Shell) ObserveLatency(tr *dtrace.Active, seconds float64) {
	if tr.Sampled() {
		sh.Latency.ObserveWithExemplar(seconds, float64(time.Now().UnixMilli())/1000,
			obs.Label{Name: "trace_id", Value: tr.TraceID()})
		return
	}
	sh.Latency.Observe(seconds)
}

// Gate is a tier's drain gate: once closed it admits nothing new, and
// Wait outlasts every unit it admitted. The zero Gate is open.
type Gate struct {
	mu       sync.RWMutex // guards draining against concurrent admissions
	draining bool
	wg       sync.WaitGroup // admitted, unfinished units
}

// Admit charges n units against counter unless the gate is closed or the
// charge would take counter past limit. The charge is one compare-and-swap
// loop, so concurrent admissions can never overshoot limit together, and
// it runs under the read lock, so a Close either precedes the check or
// waits for the charge to be counted. load is the count the last check
// saw. On ok the caller returns the units with Done.
func (g *Gate) Admit(counter *atomic.Int64, n, limit int64) (ok, draining bool, load int64) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if g.draining {
		return false, true, 0
	}
	for {
		load = counter.Load()
		if load+n > limit {
			return false, false, load
		}
		if counter.CompareAndSwap(load, load+n) {
			break
		}
	}
	g.wg.Add(int(n))
	return true, false, load
}

// Done returns n admitted units to counter.
func (g *Gate) Done(counter *atomic.Int64, n int64) {
	counter.Add(-n)
	g.wg.Add(-int(n))
}

// Close stops admission for good and reports whether this call closed
// the gate.
func (g *Gate) Close() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	first := !g.draining
	g.draining = true
	return first
}

// Draining reports whether the gate is closed.
func (g *Gate) Draining() bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.draining
}

// Wait waits, up to ctx's deadline, for every admitted unit to be done.
func (g *Gate) Wait(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		g.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("shutdown: %w", ctx.Err())
	}
}

// Health answers GET /healthz: 503 "draining" once the gate is closed, so
// routing tiers stop sending work at once rather than on their next 503;
// 503 down when down is not empty; 200 "ok" otherwise.
func (g *Gate) Health(w http.ResponseWriter, down string) {
	if g.Draining() {
		down = "draining"
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if down != "" {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, down)
		return
	}
	fmt.Fprintln(w, "ok")
}
