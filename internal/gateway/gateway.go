package gateway

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/dtrace"
	"repro/internal/obs"
	"repro/internal/progcache"
	"repro/internal/server"
	"repro/internal/shell"
	"repro/internal/wire"
)

// Config sizes the gateway. Backends is required; zero fields take
// defaults.
type Config struct {
	// Backends are the ascd base URLs (e.g. "http://10.0.0.7:8642") the
	// ring routes over. At least one is required.
	Backends []string

	// Replicas is the number of virtual ring points per backend
	// (default 128).
	Replicas int
	// LoadFactor is the bounded-load factor c: a backend stops taking new
	// keys once its in-flight jobs exceed c times the fleet average
	// (default 1.25). Values <= 1 take the default.
	LoadFactor float64
	// MaxAttempts bounds how many distinct ring replicas one request may
	// try before the gateway sheds it (default 3, clamped to the backend
	// count).
	MaxAttempts int

	// MaxInflight bounds requests (run calls plus batch calls) in flight
	// through the gateway; beyond it submissions shed with 429 (default
	// 256).
	MaxInflight int
	// MaxBodyBytes bounds the request body (default 32 MiB — above the
	// ascd default because the gateway splits batches before forwarding).
	MaxBodyBytes int64
	// BatchMaxJobs bounds the jobs accepted in one gateway batch (default
	// 256). BackendBatchMaxJobs chunks routed digest groups so no
	// forwarded sub-batch exceeds what an ascd accepts (default 64,
	// matching ascd's -batch-max-jobs default).
	BatchMaxJobs        int
	BackendBatchMaxJobs int

	// Health checking: HealthInterval between probes of a healthy backend
	// (default 2s), HealthTimeout per probe (default 1s), HealthFailAfter
	// consecutive failures to eject (default 3) and HealthRiseAfter
	// consecutive successes to re-admit (default 2), so a flapping node
	// does not bounce in and out on every probe.
	HealthInterval  time.Duration
	HealthTimeout   time.Duration
	HealthFailAfter int
	HealthRiseAfter int

	// ScrapeTimeout bounds each backend /metrics fetch during a fleet
	// scrape (default 2s). It also bounds backend /debug/traces fetches
	// when stitching a fleet-wide trace.
	ScrapeTimeout time.Duration

	// MaxMigrations bounds how many envelope hops one session migration
	// may take — each hop is a drain handshake answered by yet another
	// draining successor (default 4).
	MaxMigrations int

	// TraceSample is the deterministic head-sampling rate for distributed
	// traces, in [0, 1] (default 0: retain only errored/slow/flagged
	// traces). Configure gateway and backends with the same rate and they
	// agree per trace id without coordination.
	TraceSample float64
	// TraceSlow is the always-keep latency threshold (default 1s).
	TraceSlow time.Duration
	// TraceRing bounds finished traces retained for GET /debug/traces
	// (default 256; negative disables tracing).
	TraceRing int

	// HTTPClient is the proxy transport (default: a dedicated client with
	// generous idle-connection reuse and no overall timeout — simulations
	// legitimately run for minutes; per-request contexts bound them).
	HTTPClient *http.Client

	// Logger receives routing and health lifecycle events. Nil discards.
	Logger *slog.Logger
}

func (c *Config) fillDefaults() {
	if c.Replicas <= 0 {
		c.Replicas = 128
	}
	if c.LoadFactor <= 1 {
		c.LoadFactor = 1.25
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 256
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.BatchMaxJobs <= 0 {
		c.BatchMaxJobs = 256
	}
	if c.BackendBatchMaxJobs <= 0 {
		c.BackendBatchMaxJobs = 64
	}
	if c.ScrapeTimeout <= 0 {
		c.ScrapeTimeout = 2 * time.Second
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = time.Second
	}
	if c.HealthFailAfter <= 0 {
		c.HealthFailAfter = 3
	}
	if c.HealthRiseAfter <= 0 {
		c.HealthRiseAfter = 2
	}
	if c.MaxMigrations <= 0 {
		c.MaxMigrations = 4
	}
	if c.TraceSlow <= 0 {
		c.TraceSlow = dtrace.DefaultSlow
	}
	if c.TraceRing == 0 {
		c.TraceRing = dtrace.DefaultRingSize
	}
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
}

// DefaultConfig returns the configuration a zero Config runs with: every
// default filled in, so a command line can offer them as its flag
// defaults instead of restating them.
func DefaultConfig() Config {
	var c Config
	c.fillDefaults()
	return c
}

// Gateway is the distributed serving tier's front: it speaks the same v1
// wire contract as a single ascd, so clients (and the client package)
// point at it unchanged, and it routes by consistent hash of
// (program digest, Config.Key()) so the fleet's per-backend program
// caches, warm pools, and gang grouping keep their hit rates through
// scale-out. Create it with New, mount Handler, stop it with Shutdown.
type Gateway struct {
	cfg   Config
	ring  *Ring
	check *checker
	m     *gwMetrics
	sh    shell.Shell

	inflight atomic.Int64             // admitted run/batch handler calls
	loads    map[string]*atomic.Int64 // per-backend in-flight jobs (bounded-load signal)

	// Session routing state: which backend each session routed through this
	// gateway last lived on, which backends an admin drain removed from
	// candidate selection, and the per-session migration ledger the drain
	// walk reports from (see sessions.go).
	sessMu      sync.RWMutex
	sessBackend map[string]string
	drained     map[string]bool
	migMu       sync.Mutex
	migLedger   map[string]*migRecord
}

// New builds a gateway over the configured backends and starts its
// health checker.
func New(cfg Config) (*Gateway, error) {
	cfg.fillDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("gateway: at least one backend is required")
	}
	seen := map[string]bool{}
	backends := make([]string, 0, len(cfg.Backends))
	for _, b := range cfg.Backends {
		b = strings.TrimRight(strings.TrimSpace(b), "/")
		if b == "" {
			continue
		}
		if !strings.Contains(b, "://") {
			b = "http://" + b
		}
		if seen[b] {
			return nil, fmt.Errorf("gateway: duplicate backend %s", b)
		}
		seen[b] = true
		backends = append(backends, b)
	}
	if len(backends) == 0 {
		return nil, errors.New("gateway: at least one backend is required")
	}
	cfg.Backends = backends

	g := &Gateway{
		cfg:         cfg,
		ring:        NewRing(cfg.Replicas),
		m:           newGwMetrics(),
		loads:       make(map[string]*atomic.Int64, len(backends)),
		sessBackend: make(map[string]string),
		drained:     make(map[string]bool),
		migLedger:   make(map[string]*migRecord),
	}
	g.sh = shell.Shell{
		Log: cfg.Logger,
		Tracer: dtrace.New(dtrace.Options{
			Service:  "ascgw",
			Sample:   cfg.TraceSample,
			Slow:     cfg.TraceSlow,
			RingSize: cfg.TraceRing,
		}),
		MaxBody: cfg.MaxBodyBytes,
		Latency: g.m.latency,
	}
	for _, b := range backends {
		g.ring.Add(b)
		g.loads[b] = &atomic.Int64{}
		g.m.backendUp.With(backendLabel(b)).Set(1)
		g.m.inflight.With(backendLabel(b)) // materialize the series at 0
	}
	g.m.reg.NewGaugeFunc("asc_gw_backends_healthy", "Backends currently in the routable set.",
		func() float64 {
			if g.check == nil {
				return float64(len(g.cfg.Backends))
			}
			return float64(g.check.HealthyCount())
		})
	g.m.reg.NewGaugeFunc("asc_gw_inflight_requests", "Run and batch calls currently inside the gateway.",
		func() float64 { return float64(g.inflight.Load()) })

	g.check = newChecker(cfg, g.onHealthChange)
	go g.check.run()
	return g, nil
}

// onHealthChange mirrors a health transition into the metrics. The ring
// keeps every configured backend — selection filters by health — so an
// ejected backend's keys fall to their ring successors and return home
// on re-admission, instead of reshuffling the whole ring twice.
func (g *Gateway) onHealthChange(name string, healthy bool) {
	if healthy {
		g.m.backendUp.With(backendLabel(name)).Set(1)
		g.m.readmissions.With(backendLabel(name)).Inc()
	} else {
		g.m.backendUp.With(backendLabel(name)).Set(0)
		g.m.ejections.With(backendLabel(name)).Inc()
	}
}

// Handler returns the gateway's HTTP API — the same surface as ascd:
// POST /v1/run, POST /v1/batch, POST /v1/sessions (+ /v1/sessions/{id},
// .../resume), POST /v1/admin/drain (drain-and-migrate one backend),
// GET /metrics (fleet-wide), GET /healthz, GET /debug/traces (stitched
// fleet-wide waterfalls). Every response carries X-Request-Id.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", g.handleRun)
	mux.HandleFunc("/v1/batch", g.handleBatch)
	mux.HandleFunc("/v1/sessions", g.handleSessions)
	mux.HandleFunc("/v1/sessions/", g.handleSessionByID)
	mux.HandleFunc("/v1/admin/drain", g.handleAdminDrain)
	mux.HandleFunc("/metrics", g.handleMetrics)
	mux.HandleFunc("/healthz", g.handleHealthz)
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		dtrace.Serve(w, r, "ascgw", g.sh.Tracer, g.fetchBackendTraces)
	})
	return dtrace.WithRequestID(mux)
}

// Shutdown stops admission (new submissions get 503), waits for in-flight
// requests up to ctx's deadline, and stops the health checker. Idempotent.
func (g *Gateway) Shutdown(ctx context.Context) error {
	if g.sh.Gate.Close() {
		g.check.Stop()
	}
	return g.sh.Gate.Wait(ctx)
}

// retryAfterSeconds derives the gateway's shed hint from current load:
// in-flight jobs per healthy backend, clamped to [1s, 60s]. floorHint (a
// backend's own Retry-After, when one was seen) raises it — the fleet
// knows more about its queues than the gateway does.
func (g *Gateway) retryAfterSeconds(floorHint int) int {
	healthy := g.check.HealthyCount()
	if healthy < 1 {
		healthy = 1
	}
	var load int64
	for _, l := range g.loads {
		load += l.Load()
	}
	secs := 1 + int(load)/healthy
	if secs < floorHint {
		secs = floorHint
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

func (g *Gateway) writeUnavailable(w http.ResponseWriter, status int, floorHint int, format string, args ...any) {
	w.Header().Set("Retry-After", strconv.Itoa(g.retryAfterSeconds(floorHint)))
	wire.WriteError(w, status, format, args...)
}

// admit performs the drain/in-flight admission dance shared by every
// proxying handler. It returns false after writing the refusal and
// marking tr errored; on true the caller owns one gate unit and one
// inflight unit and must call release with the returned start time.
func (g *Gateway) admit(w http.ResponseWriter, tr *dtrace.Active, route string) (start time.Time, ok bool) {
	ok, draining, _ := g.sh.Gate.Admit(&g.inflight, 1, int64(g.cfg.MaxInflight))
	switch {
	case draining:
		g.m.sheds.With(route, "draining").Inc()
		tr.SetError()
		g.writeUnavailable(w, http.StatusServiceUnavailable, 0, "gateway is shutting down")
	case !ok:
		g.m.sheds.With(route, "inflight").Inc()
		tr.SetError()
		g.writeUnavailable(w, http.StatusTooManyRequests, 0, "gateway at capacity (%d in flight)", g.cfg.MaxInflight)
	default:
		g.m.requests.With(route).Inc()
		start = time.Now()
	}
	return start, ok
}

// release records an admitted request's latency and returns its slot.
func (g *Gateway) release(tr *dtrace.Active, start time.Time) {
	g.sh.ObserveLatency(tr, time.Since(start).Seconds())
	g.sh.Gate.Done(&g.inflight, 1)
}

// routingKey is what a job hashes on: the pre-submit program digest
// (progcache.RequestDigest — the same digest the backend caches and gangs
// by). The digest hashes the machine's architectural key, so one
// kernel+geometry is one ring arc.
func routingKey(req *client.RunRequest) string {
	return progcache.RequestDigest(req.ASCL, req.Asm, req.Config.ASC())
}

// candidates returns the ordered backends to try for key: the bounded-
// load pick first (the key's owner unless it is over the load bound),
// then the remaining healthy replicas in ring order, truncated to
// MaxAttempts. spilled reports whether the bounded-load rule skipped the
// key's first-preference backend; the caller owns the metric and the
// route span attribute.
func (g *Gateway) candidates(key string) (out []string, spilled bool) {
	prefs := g.ring.Preference(key)
	healthy := prefs[:0:len(prefs)]
	for _, b := range prefs {
		if g.check.Healthy(b) && !g.isDrained(b) {
			healthy = append(healthy, b)
		}
	}
	if len(healthy) == 0 {
		return nil, false
	}
	pick, spilled := PickBounded(healthy, func(b string) int64 { return g.loads[b].Load() }, g.cfg.LoadFactor)
	out = make([]string, 0, len(healthy))
	out = append(out, pick)
	for _, b := range healthy {
		if b != pick {
			out = append(out, b)
		}
	}
	if len(out) > g.cfg.MaxAttempts {
		out = out[:g.cfg.MaxAttempts]
	}
	return out, spilled
}

// backendResponse is one proxied attempt's outcome.
type backendResponse struct {
	status     int
	body       []byte     // raw's bytes, valid until raw.Release
	raw        *wire.Body // nil for an answer the gateway minted
	header     http.Header
	retryAfter int                      // parsed Retry-After seconds on 429/503
	handoff    *client.SnapshotEnvelope // the drain handshake's envelope, set by attempt
}

// forward issues one backend request. Simulation jobs are pure — a rerun
// is bit-identical and side-effect free — so every attempt is safely
// idempotent, including after an ambiguous transport failure.
// tp, when non-empty, is the outbound W3C traceparent whose span id is
// this attempt's forward/retry span — the backend's root span parents to
// it, which is what lets Stitch render one fleet-wide tree. A nil body
// sends none.
func (g *Gateway) forward(ctx context.Context, method, backend, path, id, tp string, body []byte) (*backendResponse, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, backend+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("X-Request-Id", id)
	if tp != "" {
		req.Header.Set("traceparent", tp)
	}
	resp, err := g.cfg.HTTPClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := wire.ReadBody(resp.Body, resp.ContentLength, 256<<20)
	if err != nil {
		return nil, err
	}
	br := &backendResponse{status: resp.StatusCode, body: raw.Bytes(), raw: raw, header: resp.Header}
	if h := resp.Header.Get("Retry-After"); h != "" {
		if secs, err := strconv.Atoi(strings.TrimSpace(h)); err == nil && secs > 0 {
			br.retryAfter = secs
		}
	}
	return br, nil
}

// hop is what every backend attempt of one proxied unit shares: a run
// request, one batch digest group, a new session, or a session migration.
type hop struct {
	path string
	id   string // X-Request-Id, forwarded to every attempt
	body []byte
	jobs int64 // load units one attempt charges its backend
	log  *slog.Logger

	hint      int  // largest backend Retry-After seen, for the shed response
	restarted bool // the answer came after a transport failure lost the job elsewhere
}

// hopOutcome classifies one backend attempt.
type hopOutcome int

const (
	hopDone      hopOutcome = iota // a terminal answer, for the caller to relay
	hopRetry                       // 429/503: load truth about one replica, try the next
	hopLost                        // transport failure, reported to health: try the next
	hopHandshake                   // 503 with a snapshot envelope: the session suspended in our hands
	hopCanceled                    // ctx ended: no replica can help, health is not implicated
)

// attempt makes one backend hop under its own span (name and attrs are
// the caller's): it charges the backend's load while the request is in
// flight, forwards, reports transport failures to the health checker,
// and classifies the answer, raising h.hint to a retryable answer's
// Retry-After. Only a terminal answer comes back whole; a handshake
// carries just its envelope. Every proxy loop goes through it.
func (g *Gateway) attempt(ctx context.Context, h *hop, parent *dtrace.Span, name, backend string, attrs ...dtrace.Attr) (*backendResponse, hopOutcome) {
	label := backendLabel(backend)
	a, _ := dtrace.FromContext(ctx)
	sp := a.StartSpan(name, parent, attrs...)
	load, gauge := g.loads[backend], g.m.inflight.With(label)
	load.Add(h.jobs)
	gauge.Add(h.jobs)
	r, err := g.forward(ctx, http.MethodPost, backend, h.path, h.id, a.Traceparent(sp), h.body)
	load.Add(-h.jobs)
	gauge.Add(-h.jobs)
	if err != nil {
		if ctx.Err() != nil {
			sp.EndErr("canceled: " + err.Error())
			return nil, hopCanceled
		}
		g.m.backendRequests.With(label, "transport").Inc()
		g.check.ReportFailure(backend, err)
		sp.EndErr(err.Error())
		h.log.Warn("backend transport failure", "backend", backend, "path", h.path, "error", err.Error())
		return nil, hopLost
	}
	sp.SetAttr(dtrace.Int("status", int64(r.status)))
	if r.status == http.StatusServiceUnavailable {
		if r.handoff = parseDraining(r.body); r.handoff != nil {
			r.raw.Release()
			sp.SetAttr(dtrace.Str("outcome", "draining_handshake"))
			sp.End()
			return &backendResponse{handoff: r.handoff}, hopHandshake
		}
	}
	// 429 (queue full) and 503 (draining or overloaded) are load
	// statements about one node, not about the job: close the span with
	// its status, not as an error.
	if r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable {
		r.raw.Release()
		g.m.backendRequests.With(label, "retryable").Inc()
		sp.SetAttr(dtrace.Str("outcome", "retryable"))
		sp.End()
		h.hint = max(h.hint, r.retryAfter)
		return nil, hopRetry
	}
	g.m.backendRequests.With(label, "ok").Inc()
	sp.End()
	return r, hopDone
}

// proxyToFleet runs the attempt loop for one routed unit: walk the
// candidate replicas, retry 429/503 and transport failures on the next
// replica, and report how the unit resolved. A drain handshake — a
// session that started, ran, and suspended — migrates the envelope to a
// ring successor instead of resubmitting from scratch. A nil response
// means the unit shed (h.hint carries the largest backend Retry-After) or
// ctx ended.
func (g *Gateway) proxyToFleet(ctx context.Context, key string, h *hop) (resp *backendResponse, backend string) {
	cands, spilled := g.candidates(key)
	if spilled {
		g.m.spills.Inc()
	}
	a, parent := dtrace.FromContext(ctx)
	route := a.StartSpan("route", parent,
		dtrace.Bool("spilled", spilled), dtrace.Int("candidates", int64(len(cands))))
	defer route.End()
	lost := false
	for i, b := range cands {
		name := "forward"
		if i > 0 {
			name = "retry"
			g.m.retries.Inc()
			h.log.Debug("retrying on next replica", "backend", b, "attempt", i+1)
		}
		r, out := g.attempt(ctx, h, route, name, b,
			dtrace.Str("backend", backendLabel(b)), dtrace.Int("attempt", int64(i+1)))
		switch out {
		case hopCanceled:
			return nil, ""
		case hopLost:
			lost = true
		case hopHandshake:
			h.log.Info("session handshake: backend draining", "backend", b, "session_id", r.handoff.SessionID)
			g.claimMigration(r.handoff.SessionID)
			return g.migrateSession(ctx, r.handoff, b, h)
		case hopDone:
			route.SetAttr(dtrace.Str("backend", backendLabel(b)), dtrace.Int("attempts", int64(i+1)))
			h.restarted = lost
			return r, b
		}
	}
	route.SetAttr(dtrace.Bool("shed", true))
	return nil, ""
}

// handleRun routes one job to the backend that owns its program digest
// and relays the backend's response verbatim — the gateway adds routing,
// not semantics.
func (g *Gateway) handleRun(w http.ResponseWriter, r *http.Request) {
	var req client.RunRequest
	c, ok := g.sh.Request(w, r, shell.Route{Name: "run", Allow: "POST", Keep: true}, &req)
	defer c.Finish()
	if !ok {
		return
	}
	start, ok := g.admit(w, c.Tr, "run")
	if !ok {
		return
	}
	defer g.release(c.Tr, start)

	ctx := dtrace.ContextWith(r.Context(), c.Tr, c.Tr.Root())
	h := &hop{path: "/v1/run", id: c.ID, body: c.Body, jobs: 1, log: c.Log}
	resp, backend := g.proxyToFleet(ctx, routingKey(&req), h)
	if resp == nil {
		c.Tr.SetError()
		if r.Context().Err() == nil { // otherwise the client is gone: nothing useful can be written
			g.shedRun(w, c.Log, h.hint)
		}
		return
	}
	c.Log.Debug("run routed", "backend", backend, "status", resp.status)
	relay(w, c.Tr, resp)
}

// shedRun emits the gateway's saturation response for a run that
// exhausted its replicas.
func (g *Gateway) shedRun(w http.ResponseWriter, log *slog.Logger, hint int) {
	if g.check.HealthyCount() == 0 {
		g.m.sheds.With("run", "no_backends").Inc()
		log.Warn("job shed", "reason", "no healthy backends")
		g.writeUnavailable(w, http.StatusServiceUnavailable, hint, "no healthy backend available")
		return
	}
	g.m.sheds.With("run", "saturated").Inc()
	log.Warn("job shed", "reason", "all replicas backpressured")
	g.writeUnavailable(w, http.StatusServiceUnavailable, hint, "fleet saturated: every replica backpressured")
}

// relay copies a backend response to the client byte for byte, keeping
// the backend's status, error shape, and Retry-After (results must be
// bit-identical to a direct ascd call), marks tr errored on a 4xx/5xx,
// and releases the response.
func relay(w http.ResponseWriter, tr *dtrace.Active, resp *backendResponse) {
	defer resp.raw.Release()
	if resp.status >= http.StatusBadRequest {
		tr.SetError()
	}
	if ct := resp.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(resp.status)
	w.Write(resp.body)
}

// batchGroup is one routed unit of a split batch: the original job
// indices of one digest group chunk.
type batchGroup struct {
	key  string
	idxs []int
}

// splitBatch partitions a batch's jobs by routing key, preserving
// request order within each group, and chunks groups to the backend
// batch cap. Same-program jobs stay together, so they arrive at one
// backend as a gangable batch.
func (g *Gateway) splitBatch(req *client.BatchRequest) []batchGroup {
	byKey := map[string]int{}
	var groups []batchGroup
	for i := range req.Jobs {
		key := routingKey(&req.Jobs[i])
		gi, ok := byKey[key]
		if !ok {
			gi = len(groups)
			byKey[key] = gi
			groups = append(groups, batchGroup{key: key})
		}
		groups[gi].idxs = append(groups[gi].idxs, i)
	}
	var chunked []batchGroup
	for _, grp := range groups {
		for len(grp.idxs) > g.cfg.BackendBatchMaxJobs {
			chunked = append(chunked, batchGroup{key: grp.key, idxs: grp.idxs[:g.cfg.BackendBatchMaxJobs]})
			grp.idxs = grp.idxs[g.cfg.BackendBatchMaxJobs:]
		}
		chunked = append(chunked, grp)
	}
	return chunked
}

// handleBatch splits a batch by digest group, routes each group to its
// ring owner, and reassembles per-job results in request order. Group
// failures degrade to per-job errors — the batch response contract
// (HTTP 200, index-aligned outcome vector) survives any single backend.
func (g *Gateway) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req client.BatchRequest
	c, ok := g.sh.Request(w, r, shell.Route{Name: "batch", Allow: "POST"}, &req)
	defer c.Finish()
	if !ok {
		return
	}
	if len(req.Jobs) == 0 {
		c.Tr.SetError()
		wire.WriteError(w, http.StatusBadRequest, "batch has no jobs")
		return
	}
	if len(req.Jobs) > g.cfg.BatchMaxJobs {
		c.Tr.SetError()
		wire.WriteError(w, http.StatusBadRequest, "batch has %d jobs, gateway cap is %d", len(req.Jobs), g.cfg.BatchMaxJobs)
		return
	}
	if req.TimeoutMs < 0 {
		c.Tr.SetError()
		wire.WriteError(w, http.StatusBadRequest, "timeoutMs must be non-negative")
		return
	}
	start, ok := g.admit(w, c.Tr, "batch")
	if !ok {
		return
	}
	defer g.release(c.Tr, start)

	groups := g.splitBatch(&req)
	c.Tr.Root().SetAttr(dtrace.Int("jobs", int64(len(req.Jobs))), dtrace.Int("groups", int64(len(groups))))
	c.Log.Debug("batch split", "jobs", len(req.Jobs), "groups", len(groups))
	batchCtx := dtrace.ContextWith(r.Context(), c.Tr, c.Tr.Root())
	outcomes := make([]client.BatchJobResult, len(req.Jobs))
	var wg sync.WaitGroup
	for _, grp := range groups {
		g.m.batchGroups.Inc()
		g.m.batchGroupSize.Observe(float64(len(grp.idxs)))
		wg.Add(1)
		go func(grp batchGroup) {
			defer wg.Done()
			g.routeGroup(batchCtx, &req, grp, outcomes, c.ID, c.Log)
		}(grp)
	}
	wg.Wait()
	if r.Context().Err() != nil {
		c.Tr.SetError()
		return // client gone
	}

	res := client.BatchResult{Jobs: outcomes}
	for i := range res.Jobs {
		switch {
		case res.Jobs[i].Result != nil:
			res.Completed++
		case res.Jobs[i].Status == http.StatusRequestTimeout:
			res.Canceled++
		default:
			res.Failed++
		}
	}
	c.Log.Info("batch completed", "jobs", len(req.Jobs), "groups", len(groups),
		"completed", res.Completed, "failed", res.Failed, "canceled", res.Canceled,
		"duration", time.Since(start).String())
	wire.WriteJSON(w, http.StatusOK, &res)
}

// routeGroup forwards one digest group as a sub-batch to its ring owner
// and scatters the backend's index-aligned results back to the group's
// original batch positions.
func (g *Gateway) routeGroup(ctx context.Context, req *client.BatchRequest, grp batchGroup,
	outcomes []client.BatchJobResult, id string, log *slog.Logger) {

	ctx, csp := dtrace.Start(ctx, "chunk",
		dtrace.Str("digest", progcache.ShortDigest(grp.key)), dtrace.Int("jobs", int64(len(grp.idxs))))
	defer csp.End()

	sub := client.BatchRequest{Jobs: make([]client.RunRequest, len(grp.idxs)), TimeoutMs: req.TimeoutMs}
	for si, i := range grp.idxs {
		sub.Jobs[si] = req.Jobs[i]
	}
	body, err := wire.Marshal(&sub)
	if err != nil {
		csp.EndErr(err.Error())
		g.failGroup(outcomes, grp, http.StatusInternalServerError, fmt.Sprintf("encoding sub-batch: %v", err))
		return
	}

	h := &hop{path: "/v1/batch", id: id, body: body, jobs: int64(len(grp.idxs)), log: log}
	resp, backend := g.proxyToFleet(ctx, grp.key, h)
	if resp == nil {
		if ctx.Err() != nil {
			csp.EndErr("canceled")
			g.failGroup(outcomes, grp, http.StatusRequestTimeout, "batch canceled before the group resolved")
			return
		}
		g.m.sheds.With("batch", "saturated").Inc()
		log.Warn("batch group shed", "jobs", len(grp.idxs))
		secs := g.retryAfterSeconds(h.hint)
		csp.EndErr("shed: every replica backpressured")
		g.failGroup(outcomes, grp, http.StatusServiceUnavailable,
			fmt.Sprintf("no backend available for this job group; retry after %ds", secs))
		return
	}
	defer resp.raw.Release()
	if resp.status != http.StatusOK {
		// The backend refused the whole sub-batch on non-load grounds
		// (it cannot be 429/503 here — those retried). Surface its answer
		// per job.
		var eb struct {
			Error string `json:"error"`
		}
		msg := strings.TrimSpace(string(resp.body))
		if wire.Unmarshal(resp.body, &eb) == nil && eb.Error != "" {
			msg = eb.Error
		}
		csp.EndErr(msg)
		g.failGroup(outcomes, grp, resp.status, msg)
		return
	}
	var bres client.BatchResult
	if err := wire.Unmarshal(resp.body, &bres); err != nil || len(bres.Jobs) != len(grp.idxs) {
		csp.EndErr("malformed batch response")
		g.failGroup(outcomes, grp, http.StatusBadGateway,
			fmt.Sprintf("backend %s returned a malformed batch response", backend))
		return
	}
	csp.SetAttr(dtrace.Str("backend", backendLabel(backend)))
	for si, i := range grp.idxs {
		outcomes[i] = bres.Jobs[si]
	}
	log.Debug("batch group routed", "backend", backend, "jobs", len(grp.idxs))
}

// failGroup marks every job of a group with one error outcome.
func (g *Gateway) failGroup(outcomes []client.BatchJobResult, grp batchGroup, status int, msg string) {
	for _, i := range grp.idxs {
		outcomes[i] = client.BatchJobResult{Status: status, Error: msg}
	}
}

// handleHealthz reports gateway liveness: 200 only while the gateway is
// admitting and at least one backend is routable, so a load balancer in
// front of several gateways treats a fleetless gateway as down.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	down := ""
	if g.check.HealthyCount() == 0 {
		down = "no healthy backends"
	}
	g.sh.Gate.Health(w, down)
}

// handleMetrics serves the fleet-wide scrape: the gateway's own asc_gw_*
// series merged with every backend's registry. By default each backend
// sample gains a backend label (per-node attribution — which node's
// program cache is hitting); with ?view=fleet, same-name samples are
// summed across backends instead (counters sum, histogram buckets merge
// element-wise), giving fleet totals under the original series names.
// The JSON view (?format=json or Accept: application/json) is ascd's
// MetricsView projected from that fleet sum. Ejected backends are scraped
// too — a draining node still reports, and its counters are part of fleet
// truth until it is gone. A backend that does not answer 200 with an
// exposition ParseText accepts counts as a scrape failure.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	asJSON := server.WantsJSON(r)
	sum := asJSON || r.URL.Query().Get("view") == "fleet"

	scraped := make([][]*obs.ParsedFamily, len(g.cfg.Backends))
	ok := make([]bool, len(g.cfg.Backends))
	g.getAll(r.Context(), "/metrics", "", func(i int, body []byte) {
		fams, err := obs.ParseText(string(body))
		scraped[i], ok[i] = fams, err == nil
	})
	merged := g.m.reg.Families()
	var failed []string
	for i, b := range g.cfg.Backends {
		if !ok[i] {
			g.m.scrapeFailures.With(backendLabel(b)).Inc()
			failed = append(failed, backendLabel(b))
			continue
		}
		if !sum {
			for _, f := range scraped[i] {
				for j := range f.Samples {
					f.Samples[j] = f.Samples[j].WithLabel("backend", backendLabel(b))
				}
			}
		}
		merged = obs.MergeFamilies(merged, scraped[i])
	}
	if sum {
		for _, f := range merged {
			f.SumSamples()
		}
	}
	if asJSON {
		wire.WriteJSON(w, http.StatusOK, server.MetricsView(merged))
		return
	}
	var b strings.Builder
	// Partial-merge status rides as a plain comment: scrapers skip it, a
	// human reading the exposition (or a test) sees at a glance whether
	// the fleet view is complete.
	fmt.Fprintf(&b, "# asc-gw-fleet-scrape: %d/%d backends merged", len(g.cfg.Backends)-len(failed), len(g.cfg.Backends))
	if len(failed) > 0 {
		fmt.Fprintf(&b, "; failed: %s", strings.Join(failed, ","))
	}
	b.WriteByte('\n')
	obs.WriteFamilies(&b, merged)
	w.Header().Set("Content-Type", obs.ContentType)
	io.WriteString(w, b.String())
}

// fetchBackendTraces asks every backend for its retained half of one
// trace, bounded by ScrapeTimeout, for the gateway's /debug/traces to
// stitch. Backends that never retained the trace (or are down) simply
// contribute nothing — Stitch treats absence as an orphaned-but-renderable
// tree, so a partial fleet still yields a usable waterfall.
func (g *Gateway) fetchBackendTraces(ctx context.Context, traceID string) []*dtrace.FinishedTrace {
	halves := make([][]*dtrace.FinishedTrace, len(g.cfg.Backends))
	g.getAll(ctx, "/debug/traces?trace="+url.QueryEscape(traceID), "", func(i int, body []byte) {
		var dump dtrace.TraceDump
		if wire.Unmarshal(body, &dump) == nil {
			halves[i] = dump.Traces
		}
	})
	var out []*dtrace.FinishedTrace
	for _, ts := range halves {
		out = append(out, ts...)
	}
	return out
}

// getAll GETs path from every configured backend concurrently, bounded by
// ScrapeTimeout, and hands each 200 answer's body to each with the
// backend's index. A backend that is down or answers otherwise is skipped.
func (g *Gateway) getAll(ctx context.Context, path, id string, each func(i int, body []byte)) {
	ctx, cancel := context.WithTimeout(ctx, g.cfg.ScrapeTimeout)
	defer cancel()
	var wg sync.WaitGroup
	for i, b := range g.cfg.Backends {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if resp, err := g.forward(ctx, http.MethodGet, b, path, id, "", nil); err == nil && resp.status == http.StatusOK {
				each(i, resp.body)
				resp.raw.Release()
			}
		}()
	}
	wg.Wait()
}

// backendLabel strips the scheme from a backend URL for label values:
// host:port reads better on dashboards and matches instance-label
// conventions.
func backendLabel(base string) string {
	if _, rest, ok := strings.Cut(base, "://"); ok {
		return rest
	}
	return base
}
