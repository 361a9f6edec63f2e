package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/internal/obs"
	"repro/internal/server"
)

// newTestServer starts a serving core behind httptest and returns a client
// for it. Shutdown and HTTP teardown run at test cleanup.
func newTestServer(t *testing.T, cfg server.Config) (*server.Server, *client.Client) {
	t.Helper()
	s := server.New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		hs.Close()
	})
	return s, client.New(hs.URL)
}

// sumRequest builds an ASCL job summing per-PE values, with the expected
// result computed host-side.
func sumRequest(vals []int64) (client.RunRequest, int64) {
	rows := make([][]int64, len(vals))
	var want int64
	for i, v := range vals {
		rows[i] = []int64{v}
		want += v
	}
	return client.RunRequest{
		ASCL: `
			parallel v = pread(0);
			write(0, sumval(v));
		`,
		Config:     client.MachineConfig{PEs: len(vals), Width: 32},
		LocalMem:   rows,
		DumpScalar: 1,
	}, want
}

// spinRequest is an assembly job that never halts; timeoutMs bounds it.
func spinRequest(timeoutMs int64) client.RunRequest {
	return client.RunRequest{
		Asm:       "spin:\n\tj spin\n",
		Config:    client.MachineConfig{PEs: 16},
		TimeoutMs: timeoutMs,
	}
}

func apiStatus(t *testing.T, err error) int {
	t.Helper()
	var ae *client.APIError
	if !errors.As(err, &ae) {
		t.Fatalf("expected *client.APIError, got %v", err)
	}
	return ae.Status
}

// TestConcurrentRoundTrips is the acceptance test's core: N concurrent
// clients submit compile-and-simulate jobs and every result is correct.
// Repeating one configuration must also produce pool hits.
func TestConcurrentRoundTrips(t *testing.T) {
	_, c := newTestServer(t, server.Config{Workers: 4, QueueDepth: 64})
	const clients, perClient = 8, 4
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				vals := make([]int64, 16)
				for pe := range vals {
					vals[pe] = int64(g*1000 + i*16 + pe)
				}
				req, want := sumRequest(vals)
				res, err := c.Run(context.Background(), req)
				if err != nil {
					t.Errorf("client %d iter %d: %v", g, i, err)
					return
				}
				if len(res.ScalarMem) != 1 || res.ScalarMem[0] != want {
					t.Errorf("client %d iter %d: sum = %v, want %d", g, i, res.ScalarMem, want)
				}
				if res.Cycles <= 0 || res.Instructions <= 0 {
					t.Errorf("client %d iter %d: implausible stats %+v", g, i, res)
				}
				if res.Asm == "" {
					t.Errorf("client %d iter %d: ASCL job missing generated asm", g, i)
				}
			}
		}(g)
	}
	wg.Wait()

	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Completed != clients*perClient {
		t.Errorf("completed = %d, want %d", m.Completed, clients*perClient)
	}
	if m.PoolHits == 0 {
		t.Error("repeated configuration produced no pool hits")
	}
	if m.CyclesSimulated == 0 {
		t.Error("metrics report zero cycles simulated")
	}
	if m.LatencyMsP50 <= 0 || m.LatencyMsP99 < m.LatencyMsP50 {
		t.Errorf("implausible latency quantiles p50=%v p99=%v", m.LatencyMsP50, m.LatencyMsP99)
	}
}

// TestAssemblyJobAndLocalDump runs a raw-assembly job and reads back PE
// local memory.
func TestAssemblyJobAndLocalDump(t *testing.T) {
	_, c := newTestServer(t, server.Config{Workers: 1})
	res, err := c.Run(context.Background(), client.RunRequest{
		Asm: `
			pidx p1
			pslli p2, p1, 1
			psw p2, 0(p0)
			rmax s1, p1
			sw s1, 0(s0)
			halt
		`,
		Config:     client.MachineConfig{PEs: 8, Width: 16},
		DumpScalar: 1,
		DumpLocal:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ScalarMem[0] != 7 {
		t.Errorf("rmax over pidx = %d, want 7", res.ScalarMem[0])
	}
	if len(res.LocalMem) != 8 {
		t.Fatalf("local dump has %d rows, want 8", len(res.LocalMem))
	}
	for pe, row := range res.LocalMem {
		if row[0] != int64(2*pe) {
			t.Errorf("PE %d local[0] = %d, want %d", pe, row[0], 2*pe)
		}
	}
}

// TestQueueFullRejects fills the single worker and the one queue slot with
// spinning jobs, then checks the next job is turned away with 429 instead
// of blocking — the backpressure contract.
func TestQueueFullRejects(t *testing.T) {
	_, c := newTestServer(t, server.Config{Workers: 1, QueueDepth: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Run(ctx, spinRequest(10_000))
			errs <- err
		}()
	}
	// Wait until one spinner is running and the other occupies the queue.
	waitMetrics(t, c, 2*time.Second, func(m *client.Metrics) bool {
		return m.Running == 1 && m.QueueDepth == 1
	})

	_, err := c.Run(context.Background(), spinRequest(10_000))
	if got := apiStatus(t, err); got != 429 {
		t.Errorf("overflow submission status = %d, want 429", got)
	}
	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Rejected == 0 {
		t.Error("rejected counter did not move")
	}

	// Release the spinners: cancelling the client context aborts both the
	// running simulation (RunContext polls it) and the queued job.
	cancel()
	wg.Wait()
	for i := 0; i < 2; i++ {
		if err := <-errs; err == nil {
			t.Error("cancelled spinner returned success")
		}
	}
	waitMetrics(t, c, 2*time.Second, func(m *client.Metrics) bool {
		return m.Running == 0 && m.QueueDepth == 0
	})
}

// TestRunCanceledWhileQueued: a /v1/run whose client disconnects while it
// waits behind a spinner counts as canceled, never checks out a machine,
// and leaves the queue empty.
func TestRunCanceledWhileQueued(t *testing.T) {
	_, c := newTestServer(t, server.Config{Workers: 1, QueueDepth: 1})
	spinDone := make(chan struct{})
	go func() {
		defer close(spinDone)
		c.Run(context.Background(), spinRequest(800))
	}()
	waitMetrics(t, c, 2*time.Second, func(m *client.Metrics) bool { return m.Running == 1 })
	before, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	queued := make(chan error, 1)
	go func() {
		_, err := c.Run(ctx, sumFast())
		queued <- err
	}()
	waitMetrics(t, c, 2*time.Second, func(m *client.Metrics) bool { return m.QueueDepth == 1 })
	cancel()
	if err := <-queued; err == nil {
		t.Fatal("canceled queued job returned success")
	}
	<-spinDone
	waitMetrics(t, c, 2*time.Second, func(m *client.Metrics) bool {
		return m.Canceled == before.Canceled+1 && m.QueueDepth == 0 && m.Running == 0
	})
	after, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if after.PoolHits+after.PoolMisses != before.PoolHits+before.PoolMisses {
		t.Errorf("pool checkouts moved from %d+%d to %d+%d: the canceled job checked out a machine",
			before.PoolHits, before.PoolMisses, after.PoolHits, after.PoolMisses)
	}
	if after.Completed != before.Completed {
		t.Errorf("completed moved from %d to %d: the canceled job ran", before.Completed, after.Completed)
	}
}

// TestGracefulShutdownDrains initiates shutdown while jobs are queued
// behind a slow one, and checks (a) new submissions get 503, (b) every
// already-admitted job still completes with a correct result.
func TestGracefulShutdownDrains(t *testing.T) {
	s := server.New(server.Config{Workers: 1, QueueDepth: 8})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	c := client.New(hs.URL)

	// One slow job occupies the worker; fast jobs stack up behind it.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := c.Run(context.Background(), spinRequest(500))
		if got := apiStatus(t, err); got != 504 {
			t.Errorf("slow job status = %d, want 504", got)
		}
	}()
	waitMetrics(t, c, 2*time.Second, func(m *client.Metrics) bool { return m.Running == 1 })

	const queued = 4
	results := make(chan error, queued)
	for i := 0; i < queued; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req, want := sumRequest([]int64{int64(i), int64(i) + 1, 2, 3})
			res, err := c.Run(context.Background(), req)
			if err == nil && res.ScalarMem[0] != want {
				err = errors.New("wrong sum")
			}
			results <- err
		}(i)
	}
	waitMetrics(t, c, 2*time.Second, func(m *client.Metrics) bool { return m.QueueDepth == queued })

	// Initiate drain; admitted jobs must finish, new ones must bounce.
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	// The drain flag flips before Shutdown returns; give it a moment.
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, err := c.Run(context.Background(), sumFast())
		if err != nil && apiStatus(t, err) == 503 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("submission during drain was not rejected with 503")
		}
		time.Sleep(10 * time.Millisecond)
	}

	wg.Wait()
	for i := 0; i < queued; i++ {
		if err := <-results; err != nil {
			t.Errorf("queued job failed during drain: %v", err)
		}
	}
	if err := <-shutdownDone; err != nil {
		t.Errorf("shutdown returned %v", err)
	}
}

func sumFast() client.RunRequest {
	req, _ := sumRequest([]int64{1, 2, 3, 4})
	return req
}

// TestWallClockTimeout checks a spinning program is cut off with 504.
func TestWallClockTimeout(t *testing.T) {
	_, c := newTestServer(t, server.Config{Workers: 1})
	start := time.Now()
	_, err := c.Run(context.Background(), spinRequest(150))
	if got := apiStatus(t, err); got != 504 {
		t.Errorf("status = %d, want 504", got)
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Errorf("timeout enforcement took %v", e)
	}
}

// TestCycleLimit checks the per-request cycle budget is enforced and
// clamped to the server cap.
func TestCycleLimit(t *testing.T) {
	_, c := newTestServer(t, server.Config{Workers: 1, MaxCycles: 5000})
	req := spinRequest(0)
	req.MaxCycles = 1000
	_, err := c.Run(context.Background(), req)
	if got := apiStatus(t, err); got != 504 {
		t.Errorf("cycle-limited status = %d, want 504", got)
	}
	// Asking for more than the cap clamps to it rather than running longer.
	req.MaxCycles = 1 << 40
	_, err = c.Run(context.Background(), req)
	if got := apiStatus(t, err); got != 504 {
		t.Errorf("clamped status = %d, want 504", got)
	}
}

// TestBadRequests covers the admission-time validation errors.
func TestBadRequests(t *testing.T) {
	_, c := newTestServer(t, server.Config{Workers: 1})
	cases := []struct {
		name string
		req  client.RunRequest
		want int
	}{
		{"no source", client.RunRequest{}, 400},
		{"both sources", client.RunRequest{ASCL: "x", Asm: "y"}, 400},
		{"negative limits", client.RunRequest{Asm: "halt", MaxCycles: -1}, 400},
		{"huge machine", client.RunRequest{Asm: "halt",
			Config: client.MachineConfig{PEs: 1 << 24, LocalMemWords: 1 << 16}}, 400},
		// Regression: dimensions chosen so the naive footprint products wrap
		// to ~0 must be rejected, not admitted to crash a worker.
		{"overflowing machine", client.RunRequest{Asm: "halt",
			Config: client.MachineConfig{PEs: 1 << 62, Threads: 1, LocalMemWords: 4}}, 400},
		{"negative PEs", client.RunRequest{Asm: "halt",
			Config: client.MachineConfig{PEs: -16}}, 400},
		{"bad width", client.RunRequest{Asm: "halt",
			Config: client.MachineConfig{Width: 7}}, 400},
		{"compile error", client.RunRequest{ASCL: "parallel = ;"}, 422},
		{"assemble error", client.RunRequest{Asm: "bogus s1, s2"}, 422},
		{"trap", client.RunRequest{Asm: "lw s1, 4100(s0)\nhalt"}, 422},
	}
	for _, tc := range cases {
		_, err := c.Run(context.Background(), tc.req)
		if err == nil {
			t.Errorf("%s: expected error", tc.name)
			continue
		}
		if got := apiStatus(t, err); got != tc.want {
			t.Errorf("%s: status = %d, want %d (%v)", tc.name, got, tc.want, err)
		}
	}
}

// TestInvalidProgramRejectedAtLoad: a program that assembles but fails
// decode-plane validation (here: a branch to PC 999 in a 2-instruction
// program) is rejected at admission with 422 and the machine-readable
// invalid_program marker, instead of trapping mid-run inside a worker.
func TestInvalidProgramRejectedAtLoad(t *testing.T) {
	_, c := newTestServer(t, server.Config{Workers: 1})
	cases := []struct {
		name string
		asm  string
	}{
		{"branch out of bounds", "beq s1, s2, 999\nhalt"},
		{"spawn out of bounds", "tspawn s1, 77\nhalt"},
	}
	for _, tc := range cases {
		_, err := c.Run(context.Background(), client.RunRequest{Asm: tc.asm})
		if err == nil {
			t.Fatalf("%s: expected error", tc.name)
		}
		if got := apiStatus(t, err); got != 422 {
			t.Errorf("%s: status = %d, want 422 (%v)", tc.name, got, err)
		}
		if !strings.Contains(err.Error(), "invalid_program") {
			t.Errorf("%s: error %q missing invalid_program marker", tc.name, err)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, c := newTestServer(t, server.Config{Workers: 1})
	if err := c.Healthz(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// waitMetrics polls /metrics until cond holds or the deadline passes.
func waitMetrics(t *testing.T, c *client.Client, d time.Duration, cond func(*client.Metrics) bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		m, err := c.Metrics(context.Background())
		if err == nil && cond(m) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("condition not reached within %v (last metrics: %+v)", d, m)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// httpGet fetches a raw URL and returns status, headers, and body.
func httpGet(t *testing.T, url string, header map[string]string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

// TestPrometheusExposition runs jobs and checks GET /metrics default view:
// valid Prometheus text format carrying the serving histogram and the
// simulation-depth stall counters the paper's analysis is built on.
func TestPrometheusExposition(t *testing.T) {
	s := server.New(server.Config{Workers: 2})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		hs.Close()
	})
	c := client.New(hs.URL)
	for i := 0; i < 3; i++ {
		req, _ := sumRequest([]int64{1, 2, 3, 4})
		if _, err := c.Run(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}

	resp, body := httpGet(t, hs.URL+"/metrics", nil)
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want text exposition v0.0.4", ct)
	}
	if _, err := obs.ParseText(body); err != nil {
		t.Errorf("live /metrics does not parse: %v\n%s", err, body)
	}
	for _, want := range []string{
		"asc_requests_total 3",
		`asc_jobs_total{outcome="completed"} 3`,
		"asc_request_duration_seconds_bucket{le=",
		`asc_request_duration_seconds_bucket{le="+Inf"} 3`,
		"asc_request_duration_seconds_count 3",
		"asc_sim_cycles_total",
		`asc_sim_instructions_total{class="reduction"}`,
		`asc_sim_stall_cycles_total{kind="reduction"}`,
		"asc_sim_active_threads_bucket",
		`asc_pool_hits_total{config="`,
		`asc_pool_misses_total{config="`,
		"asc_queue_depth",
		"asc_workers",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestMetricsContentNegotiation checks the JSON compat view is reachable
// via Accept and via ?format=json while the default stays Prometheus.
func TestMetricsContentNegotiation(t *testing.T) {
	_, c := newTestServer(t, server.Config{Workers: 1})
	req, _ := sumRequest([]int64{1, 2})
	if _, err := c.Run(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	base := c.BaseURL

	cases := map[string]struct {
		header map[string]string
		url    string
	}{
		"accept": {map[string]string{"Accept": "application/json"}, base + "/metrics"},
		"query":  {nil, base + "/metrics?format=json"},
	}
	for name, tc := range cases {
		_, body := httpGet(t, tc.url, tc.header)
		var m client.Metrics
		if err := json.Unmarshal([]byte(body), &m); err != nil {
			t.Fatalf("%s: JSON view not decodable: %v\n%s", name, err, body)
		}
		if m.Completed != 1 || m.Requests != 1 {
			t.Errorf("%s: JSON view counters = %+v, want completed=1 requests=1", name, m)
		}
		if m.LatencyMsP50 <= 0 {
			t.Errorf("%s: JSON view p50 = %v, want > 0", name, m.LatencyMsP50)
		}
	}

	_, body := httpGet(t, base+"/metrics", nil)
	if json.Valid([]byte(body)) {
		t.Error("default /metrics view is JSON, want Prometheus text")
	}
}

// TestTraceOptIn checks "trace": true returns a non-empty pipeline diagram
// and stall breakdown, and that untraced jobs pay nothing.
func TestTraceOptIn(t *testing.T) {
	_, c := newTestServer(t, server.Config{Workers: 1, TraceDepth: 64})
	req, want := sumRequest([]int64{3, 5, 7, 9})
	req.Trace = true
	res, err := c.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.ScalarMem[0] != want {
		t.Errorf("traced job sum = %d, want %d", res.ScalarMem[0], want)
	}
	if res.Trace == nil {
		t.Fatal("trace requested but result.Trace is nil")
	}
	if len(res.Trace.Diagram) == 0 || !strings.Contains(res.Trace.Diagram, "t0 ") {
		t.Errorf("pipeline diagram empty or malformed:\n%s", res.Trace.Diagram)
	}
	if !strings.Contains(res.Trace.Stats, "idle cycles") {
		t.Errorf("stall breakdown missing:\n%s", res.Trace.Stats)
	}

	// A second traced run on the same config must recycle the traced
	// machine and still carry a fresh (non-accumulated) diagram.
	res2, err := c.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.PoolHit {
		t.Error("second traced job did not hit the traced machine pool")
	}
	if res2.Trace == nil || res2.Trace.Diagram != res.Trace.Diagram {
		t.Error("recycled traced machine produced a different diagram for an identical job")
	}

	// Untraced jobs on the same wire config must not return a trace.
	req.Trace = false
	res3, err := c.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Trace != nil {
		t.Error("untraced job returned a trace")
	}
}

// TestRequestID checks every /v1/run response carries X-Request-Id and the
// client surfaces it in error strings.
func TestRequestID(t *testing.T) {
	_, c := newTestServer(t, server.Config{Workers: 1})

	resp, err := http.Post(c.BaseURL+"/v1/run", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := resp.Header.Get("X-Request-Id")
	if len(id) != 16 {
		t.Errorf("X-Request-Id = %q, want 16 hex chars", id)
	}

	_, err = c.Run(context.Background(), client.RunRequest{ASCL: "parallel = ;"})
	if err == nil {
		t.Fatal("expected compile error")
	}
	var ae *client.APIError
	if !errors.As(err, &ae) {
		t.Fatalf("expected APIError, got %v", err)
	}
	if len(ae.RequestID) != 16 {
		t.Errorf("APIError.RequestID = %q, want 16 hex chars", ae.RequestID)
	}
	if !strings.Contains(err.Error(), "request-id "+ae.RequestID) {
		t.Errorf("error string %q does not surface the request id", err.Error())
	}
}

// syncWriter serializes handler writes from concurrent goroutines.
type syncWriter struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

// TestLifecycleLogging checks the structured job lifecycle events carry
// the request id end to end.
func TestLifecycleLogging(t *testing.T) {
	var buf syncWriter
	logger := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	_, c := newTestServer(t, server.Config{Workers: 1, Logger: logger})

	req, _ := sumRequest([]int64{1, 2, 3, 4})
	if _, err := c.Run(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background(), client.RunRequest{ASCL: "parallel = ;"}); err == nil {
		t.Fatal("expected compile error")
	}

	out := buf.String()
	for _, want := range []string{"job admitted", "job started", "job completed", "job failed", "request_id="} {
		if !strings.Contains(out, want) {
			t.Errorf("log output missing %q:\n%s", want, out)
		}
	}
	// The completed event must carry the simulation outcome fields.
	for _, want := range []string{"cycles=", "ipc=", "pool_hit="} {
		if !strings.Contains(out, want) {
			t.Errorf("completed event missing %q:\n%s", want, out)
		}
	}
}
