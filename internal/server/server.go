// Package server implements ascd's serving core: an HTTP/JSON API that
// runs MTASC simulation jobs (ASCL source or assembly plus a machine
// configuration and memory images) in bounded admission lanes over a fleet
// of warm, recyclable machines (internal/pool).
//
// The design transplants the paper's central idea to the serving layer:
// the prototype hides per-thread broadcast/reduction latency by keeping
// many hardware threads in flight; ascd hides per-request construction and
// simulation latency by keeping many jobs in flight over pre-built
// machines. Admission is a bounded queue — when it is full the server says
// so immediately (HTTP 429) instead of letting latency grow without bound,
// and during shutdown it drains in-flight and queued jobs but admits
// nothing new (HTTP 503).
//
// Observability runs through internal/obs: GET /metrics serves Prometheus
// text exposition (the JSON compat view stays available via
// Accept: application/json or ?format=json), every request carries a
// server-assigned X-Request-Id that threads through the structured job
// lifecycle logs, and each finished simulation folds its stall/hazard
// breakdown into cumulative simulation-depth metrics so the paper's b+r
// reduction-hazard behavior is visible on a live dashboard.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"time"

	asc "repro"
	"repro/client"
	"repro/internal/dtrace"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/progcache"
	"repro/internal/shell"
	"repro/internal/wire"
)

// Config sizes the serving core. Zero fields take defaults.
type Config struct {
	// Workers is the number of execution slots in each admission lane —
	// /v1/run, the batch lane, and the session lane (default: GOMAXPROCS).
	Workers int
	// QueueDepth bounds /v1/run and batch jobs waiting beyond the ones
	// executing (default 64). The session lane has no queue: a full one
	// answers 429 at once.
	QueueDepth int
	// PoolIdle caps warm machines kept between requests (default 2*Workers).
	PoolIdle int

	// MaxCycles caps any job's cycle budget (default 100,000,000); requests
	// asking for more (or for 0 = unlimited) are clamped to it.
	MaxCycles int64
	// DefaultTimeout bounds a job's wall-clock time when the request does
	// not set one (default 30s); MaxTimeout caps requested timeouts
	// (default 2m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration

	// MaxBodyBytes bounds the request body (default 8 MiB).
	MaxBodyBytes int64
	// MaxFootprintWords bounds the simulated machine's memory footprint in
	// words — local memories plus register files plus scalar memory —
	// (default 1<<27, about 1 GiB of host memory), so one request cannot
	// OOM the daemon.
	MaxFootprintWords int64

	// TraceDepth caps the instruction records retained for a job that opts
	// into tracing (default 512), so "trace": true on a long run renders
	// the most recent instructions instead of buffering them all and
	// OOMing the daemon.
	TraceDepth int

	// BatchMaxJobs bounds the jobs accepted in one POST /v1/batch
	// (default 64).
	BatchMaxJobs int
	// ProgramCacheSize bounds the content-addressed compiled-program cache
	// in entries (default 128; negative disables caching). Repeat
	// submissions of a program skip the ASCL compiler and assembler.
	ProgramCacheSize int
	// SessionRetain bounds parked session records — suspended envelopes
	// awaiting resume plus terminal results — kept for GET /v1/sessions
	// (default 1024; the oldest parked records are evicted first).
	SessionRetain int
	// SessionDrainWait bounds how long a drain waits for running sessions
	// to reach their next checkpoint boundary (default 10s).
	SessionDrainWait time.Duration

	// TraceSample is the deterministic head-sampling rate for distributed
	// traces, in [0, 1]: the fraction of trace ids retained even when fast
	// and successful (default 0 — only errored, slow, or upstream-flagged
	// traces are kept). The decision is a pure function of the trace id, so
	// gateway and backends agree without coordination.
	TraceSample float64
	// TraceSlow is the always-keep latency threshold: traces at least this
	// slow are retained regardless of sampling (default 1s).
	TraceSlow time.Duration
	// TraceRing bounds finished traces retained for GET /debug/traces
	// (default 256; negative disables tracing entirely).
	TraceRing int

	// Logger receives structured job lifecycle events (admitted, started,
	// completed, failed, rejected, canceled), each carrying the request id
	// returned in X-Request-Id. Nil discards them.
	Logger *slog.Logger
}

func (c *Config) fillDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.PoolIdle <= 0 {
		c.PoolIdle = 2 * c.Workers
	}
	if c.MaxCycles <= 0 {
		c.MaxCycles = 100_000_000
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxFootprintWords <= 0 {
		c.MaxFootprintWords = 1 << 27
	}
	if c.TraceDepth <= 0 {
		c.TraceDepth = 512
	}
	if c.BatchMaxJobs <= 0 {
		c.BatchMaxJobs = 64
	}
	if c.SessionRetain <= 0 {
		c.SessionRetain = 1024
	}
	if c.SessionDrainWait <= 0 {
		c.SessionDrainWait = 10 * time.Second
	}
	switch {
	case c.ProgramCacheSize == 0:
		c.ProgramCacheSize = 128
	case c.ProgramCacheSize < 0:
		c.ProgramCacheSize = 0 // disabled
	}
	if c.TraceSlow <= 0 {
		c.TraceSlow = dtrace.DefaultSlow
	}
	if c.TraceRing == 0 {
		c.TraceRing = dtrace.DefaultRingSize
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

// jobOutcome is what the executor hands back to a lane's handler.
type jobOutcome struct {
	result *client.RunResult
	status int       // HTTP status for err (ignored when result != nil)
	errMsg string    // error text for the JSON error body
	stats  asc.Stats // whole-job statistics, valid when result != nil

	// Session segments only: the session's answer (completed, or
	// suspended at a checkpoint), or the drain-handshake envelope.
	sess     *client.SessionResult
	draining *client.SnapshotEnvelope
}

// endSpan closes a job-level span, marking it errored unless the job
// produced a result.
func (out *jobOutcome) endSpan(sp *dtrace.Span) {
	if out.result == nil {
		sp.EndErr(out.errMsg)
		return
	}
	sp.End()
}

// Server is the serving core. Create it with New, mount Handler, and stop
// it with Shutdown.
type Server struct {
	cfg   Config
	pool  *pool.Pool
	progs *progcache.Cache
	m     *metrics
	sh    shell.Shell

	// The admission lanes (see lane). Every job runs on its handler's
	// goroutine under one of them; sh's gate counts admitted, unfinished
	// jobs across all three, so Shutdown waits for every lane.
	runLane, batchLane, sessionLane *lane

	// Session registry: running and parked sessions, so a drain can walk
	// them and a resume can adopt them. sessOrder is the parked-record
	// eviction FIFO (see Config.SessionRetain).
	sessMu    sync.Mutex
	sessions  map[string]*session
	sessOrder []string
}

// New builds a serving core.
func New(cfg Config) *Server {
	cfg.fillDefaults()
	s := &Server{
		cfg:      cfg,
		pool:     pool.New(cfg.PoolIdle),
		progs:    progcache.New(cfg.ProgramCacheSize),
		m:        newMetrics(),
		sessions: make(map[string]*session),
	}
	s.sh = shell.Shell{
		Log: cfg.Logger,
		Tracer: dtrace.New(dtrace.Options{
			Service:  "ascd",
			Sample:   cfg.TraceSample,
			Slow:     cfg.TraceSlow,
			RingSize: cfg.TraceRing,
		}),
		MaxBody: cfg.MaxBodyBytes,
		Latency: s.m.latency,
	}
	// Each lane has Workers slots. /v1/run and batches may queue
	// QueueDepth jobs beyond them; the session lane may not.
	s.runLane = s.newLane("job", "job queue full", s.m.outcomes.With("rejected"), cfg.QueueDepth)
	s.batchLane = s.newLane("batch", "batch lane full", s.m.batchRejected, cfg.QueueDepth)
	s.sessionLane = s.newLane("session", "session lane full", s.m.sessions.With("rejected"), 0)
	// Point-in-time gauges read live server state at scrape time.
	s.m.reg.NewGaugeFunc("asc_queue_depth", "Jobs waiting in the admission queue.",
		func() float64 { return float64(s.runLane.waiting()) })
	s.m.reg.NewGaugeFunc("asc_queue_capacity", "Admission queue capacity.",
		func() float64 { return float64(cfg.QueueDepth) })
	s.m.reg.NewGaugeFunc("asc_workers", "Execution slots per admission lane.",
		func() float64 { return float64(cfg.Workers) })
	s.m.reg.NewGaugeFunc("asc_batch_running_jobs",
		"Batch sub-jobs admitted and not yet finished (executing or waiting for a batch lane slot).",
		func() float64 { return float64(s.batchLane.inflight.Load()) })
	s.m.reg.NewGaugeFunc("asc_sessions_live",
		"Resumable sessions currently executing a segment in the session lane.",
		func() float64 { return float64(len(s.sessionLane.slots)) })
	// Fleet and program-cache counters are maintained outside the
	// registry; mirror them into instruments at scrape time.
	s.m.reg.OnCollect(func() {
		for key, ks := range s.pool.StatsByKey() {
			s.m.poolHits.With(key).Set(ks.Hits)
			s.m.poolMisses.With(key).Set(ks.Misses)
			s.m.poolEvictions.With(key).Set(ks.Evictions)
			s.m.poolBuild.With(key).Set(ks.BuildNanos)
			s.m.poolIdle.With(key).Set(int64(ks.Idle))
		}
		cs := s.progs.Stats()
		s.m.progHits.Set(cs.Hits)
		s.m.progMisses.Set(cs.Misses)
		s.m.progEvictions.Set(cs.Evictions)
		s.m.progEntries.Set(int64(cs.Entries))
	})
	return s
}

// Handler returns the HTTP API: POST /v1/run, POST /v1/batch,
// POST /v1/sessions (+ /v1/sessions/{id}, .../resume, .../checkpoint),
// POST /v1/admin/drain, GET /metrics, GET /healthz, GET /debug/traces.
// Every response carries X-Request-Id.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", s.handleRun)
	mux.HandleFunc("/v1/batch", s.handleBatch)
	mux.HandleFunc("/v1/sessions", s.handleSessions)
	mux.HandleFunc("/v1/sessions/", s.handleSessionByID)
	mux.HandleFunc("/v1/admin/drain", s.handleDrain)
	mux.HandleFunc("/metrics", s.handleMetrics)
	// A draining server's /healthz answers 503 "draining": it still
	// finishes admitted jobs, but routing tiers must stop sending it work.
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { s.sh.Gate.Health(w, "") })
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		dtrace.Serve(w, r, "ascd", s.sh.Tracer, nil)
	})
	return dtrace.WithRequestID(mux)
}

// Shutdown stops admission (new submissions get 503) and waits, up to
// ctx's deadline, for every queued and in-flight job in every lane to
// finish. It is idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.sh.Gate.Close()
	return s.sh.Gate.Wait(ctx)
}

// handleRun admits a job into the run lane, waits for a slot, and runs it
// on the handler's goroutine.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req client.RunRequest
	c, ok := s.sh.Request(w, r, shell.Route{Name: "run", Allow: "POST"}, &req)
	defer c.Finish()
	if !ok {
		return
	}
	if err := s.validateJob(&req); err != nil {
		c.Log.Warn("job rejected", "reason", "validation", "error", err.Error())
		c.Tr.SetError()
		wire.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	enqueued := time.Now()
	if !s.runLane.admit(w, c.Tr, c.Log, 1) {
		return
	}
	s.m.requests.Inc()
	c.Log.Debug("job admitted", "source", sourceKind(&req), "trace", req.Trace)

	ctx := dtrace.ContextWith(r.Context(), c.Tr, c.Tr.Root())
	if !s.runLane.slot(ctx, c.Log) {
		// The client went away while the job was queued: it never starts,
		// and nothing useful can be written.
		s.runLane.release(1)
		s.m.outcomes.With("canceled").Inc()
		c.Log.Info("job canceled", "reason", "client went away while queued")
		return
	}
	s.m.running.Add(1)
	start := time.Now()
	out := s.runSolo(ctx, solo{req: &req})
	elapsed := time.Since(start)
	s.m.running.Add(-1)
	s.runLane.free()
	s.runLane.release(1)
	switch {
	case out.result != nil:
		s.m.outcomes.With("completed").Inc()
		c.Log.Info("job completed",
			"cycles", out.stats.Cycles,
			"instructions", out.stats.Instructions,
			"ipc", out.stats.IPC(),
			"pool_hit", out.result.PoolHit,
			"duration", elapsed.String())
	case out.status == http.StatusRequestTimeout:
		s.m.outcomes.With("canceled").Inc()
		c.Log.Info("job canceled", "reason", out.errMsg, "duration", elapsed.String())
	default:
		s.m.outcomes.With("failed").Inc()
		c.Log.Warn("job failed", "status", out.status, "error", out.errMsg, "duration", elapsed.String())
	}
	s.sh.ObserveLatency(c.Tr, time.Since(enqueued).Seconds())
	if out.result != nil {
		wire.WriteJSON(w, http.StatusOK, out.result)
		return
	}
	c.Tr.SetError()
	wire.WriteError(w, out.status, "%s", out.errMsg)
}

func sourceKind(req *client.RunRequest) string {
	if req.ASCL != "" {
		return "ascl"
	}
	return "asm"
}

// errStateDigest refuses stateDigest outside a session, so the option
// never silently does nothing.
var errStateDigest = errors.New("stateDigest is a session option (the digest of a session's final snapshot); use /v1/sessions")

// validateJob is validate for a /v1/run job or a /v1/batch job, which
// cannot ask for a state digest.
func (s *Server) validateJob(req *client.RunRequest) error {
	if err := s.validate(req); err != nil {
		return err
	}
	if req.StateDigest {
		return errStateDigest
	}
	return nil
}

// validate enforces the request invariants that do not need a machine.
func (s *Server) validate(req *client.RunRequest) error {
	if (req.ASCL == "") == (req.Asm == "") {
		return errors.New("exactly one of \"ascl\" or \"asm\" must be set")
	}
	if req.MaxCycles < 0 || req.TimeoutMs < 0 || req.DumpScalar < 0 || req.DumpLocal < 0 {
		return errors.New("maxCycles, timeoutMs, dumpScalar, and dumpLocal must be non-negative")
	}
	// Footprint guard: the facade sizes the flat state files with
	// overflow-checked arithmetic and its own default resolution, so a
	// hostile configuration (negative, absurd, or overflowing dimensions)
	// is rejected here, before any allocation is attempted.
	g, err := req.Config.ASC().Geometry()
	if err != nil {
		return fmt.Errorf("invalid machine config: %w", err)
	}
	if g.FootprintWords > s.cfg.MaxFootprintWords {
		return fmt.Errorf("machine footprint %d words exceeds server cap %d", g.FootprintWords, s.cfg.MaxFootprintWords)
	}
	return nil
}

// handleMetrics serves the Prometheus text exposition by default; the
// pre-obs JSON shape stays available through content negotiation
// (Accept: application/json or ?format=json) for existing dashboards.
// The JSON view is a projection of the same families (Registry.Families
// through MetricsView), so it can never disagree with it; new signals
// land only in the exposition (see docs/OBSERVABILITY.md for the
// deprecation note).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !WantsJSON(r) {
		w.Header().Set("Content-Type", obs.ContentType)
		s.m.reg.WritePrometheus(w)
		return
	}
	wire.WriteJSON(w, http.StatusOK, MetricsView(s.m.reg.Families()))
}

// progDigest is the content digest of a request's compilation input — the
// progcache key, which is also how batch admission recognizes same-program
// jobs for ganging without comparing sources.
func progDigest(req *client.RunRequest) string {
	return progcache.RequestDigest(req.ASCL, req.Asm, req.Config.ASC())
}

// compileJob resolves a request's program through the content-addressed
// cache: a repeat submission of the same source for the same architecture
// skips the ASCL compiler and assembler entirely. It returns the gang-ready
// artifact (program, generated assembly listing for ASCL jobs, and content
// digest) and whether the cache served it; a compile failure comes back as
// a ready-to-send outcome.
//
// Cached programs are shared: the simulator treats a program as immutable
// (instructions are only read and copied into fetch buffers), so any
// number of concurrently running machines can execute one *asc.Program.
func (s *Server) compileJob(req *client.RunRequest) (art progcache.Program, cacheHit bool, fail *jobOutcome) {
	key := progDigest(req)
	if cached, ok := s.progs.Get(key); ok {
		return cached, true, nil
	}
	var (
		prog    *asc.Program
		asmText string
		err     error
	)
	if req.ASCL != "" {
		prog, asmText, err = asc.CompileASCL(req.ASCL)
		if err != nil {
			return progcache.Program{}, false, &jobOutcome{status: http.StatusUnprocessableEntity, errMsg: compileErrMsg("compiling ASCL", err)}
		}
	} else {
		prog, err = asc.Assemble(req.Asm)
		if err != nil {
			return progcache.Program{}, false, &jobOutcome{status: http.StatusUnprocessableEntity, errMsg: compileErrMsg("assembling", err)}
		}
	}
	// Only successful compiles are cached; two requests racing on the same
	// key both compile and the second Put refreshes recency, which is
	// harmless (the artifacts are identical by construction).
	art = progcache.Program{Prog: prog, Asm: asmText, Digest: key}
	s.progs.Put(key, art)
	return art, false, nil
}

// compileErrMsg prefixes validation failures with the machine-readable
// "invalid_program" marker so clients can distinguish a statically
// rejected program (bad register index, out-of-range branch target) from
// an ordinary syntax error without parsing prose.
func compileErrMsg(stage string, err error) string {
	if errors.Is(err, asc.ErrInvalidProgram) {
		return fmt.Sprintf("invalid_program: %s: %v", stage, err)
	}
	return fmt.Sprintf("%s: %v", stage, err)
}

// effMaxCycles resolves a request's cycle budget against the server cap.
func (s *Server) effMaxCycles(req *client.RunRequest) int64 {
	maxCycles := req.MaxCycles
	if maxCycles <= 0 || maxCycles > s.cfg.MaxCycles {
		maxCycles = s.cfg.MaxCycles
	}
	return maxCycles
}

// effTimeout resolves a request's wall-clock budget against the defaults.
func (s *Server) effTimeout(req *client.RunRequest) time.Duration {
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMs > 0 {
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	return timeout
}

// handleBatch admits up to BatchMaxJobs jobs as one unit into the batch
// lane and fans them out across the warm fleet. Jobs fail
// independently: the batch always resolves to HTTP 200 with a per-job
// outcome vector, index-aligned with the request. Only admission itself
// can fail the whole batch (malformed body, size cap, backpressure,
// draining).
//
// This is the serving analogue of the paper's core amortization: one
// round-trip, one admission decision, and one warm fleet absorb N units
// of work, the way one broadcast/reduction pipeline fill is hidden
// across 16 hardware threads.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req client.BatchRequest
	c, ok := s.sh.Request(w, r, shell.Route{Name: "batch", Allow: "POST"}, &req)
	defer c.Finish()
	if !ok {
		return
	}
	if len(req.Jobs) == 0 {
		c.Tr.SetError()
		wire.WriteError(w, http.StatusBadRequest, "batch has no jobs")
		return
	}
	if len(req.Jobs) > s.cfg.BatchMaxJobs {
		c.Log.Warn("batch rejected", "reason", "too many jobs", "jobs", len(req.Jobs), "cap", s.cfg.BatchMaxJobs)
		c.Tr.SetError()
		wire.WriteError(w, http.StatusBadRequest, "batch has %d jobs, cap is %d", len(req.Jobs), s.cfg.BatchMaxJobs)
		return
	}
	if req.TimeoutMs < 0 {
		c.Tr.SetError()
		wire.WriteError(w, http.StatusBadRequest, "timeoutMs must be non-negative")
		return
	}

	// Whole-batch admission: every job is charged against the batch lane
	// at once.
	n := int64(len(req.Jobs))
	if !s.batchLane.admit(w, c.Tr, c.Log, n) {
		return
	}
	s.m.batchRequests.Inc()
	s.m.batchSize.Observe(float64(n))
	start := time.Now()
	c.Log.Debug("batch admitted", "jobs", n, "timeout_ms", req.TimeoutMs)

	// The batch context layers the optional batch-level deadline over the
	// HTTP request context. When it ends, unfinished jobs are canceled and
	// the response carries the finished jobs' results alongside per-job
	// canceled markers.
	batchCtx := dtrace.ContextWith(r.Context(), c.Tr, c.Tr.Root())
	if req.TimeoutMs > 0 {
		var cancel context.CancelFunc
		batchCtx, cancel = context.WithTimeout(batchCtx, time.Duration(req.TimeoutMs)*time.Millisecond)
		defer cancel()
	}

	// Grouping: same-program, same-config, same-limits jobs execute as one
	// lockstep gang — one fetch/decode/issue pass over the shared micro-op
	// stream drives all of them, the paper's one-broadcast-to-all-PEs
	// amortization applied across jobs. The wire semantics are unchanged:
	// per-job results are bit-identical to solo runs. Each group takes one
	// batch-lane slot; a group of one runs solo under its own job span.
	outcomes := make([]jobOutcome, len(req.Jobs))
	var wg sync.WaitGroup
	for _, grp := range s.planBatch(&req, outcomes) {
		wg.Add(1)
		go func(grp []int) {
			defer wg.Done()
			defer s.batchLane.release(int64(len(grp)))
			start := time.Now()
			for _, i := range grp {
				outcomes[i] = canceledBeforeStart
			}
			if i := grp[0]; len(grp) == 1 {
				jctx, sp := dtrace.Start(batchCtx, "job", dtrace.Int("index", int64(i)))
				if s.batchLane.slot(jctx, c.Log) {
					outcomes[i] = rewriteBatchCancel(batchCtx, s.runSolo(jctx, solo{req: &req.Jobs[i]}))
					s.batchLane.free()
				}
				outcomes[i].endSpan(sp)
			} else if s.batchLane.slot(batchCtx, c.Log) {
				s.runGang(batchCtx, req.Jobs, grp, outcomes)
				s.batchLane.free()
			}
			// Sub-jobs observe into the same request-duration histogram the
			// single-run lane uses: one histogram answers "how long does a
			// job take here" regardless of how it arrived. Lockstep lanes
			// share wall-clock: each lane's duration is the group's.
			sec := time.Since(start).Seconds()
			for range grp {
				s.sh.ObserveLatency(c.Tr, sec)
			}
		}(grp)
	}
	// Wait for every sub-job, canceled batches included: sub-jobs hold
	// warm machines and must re-park them before the batch resolves.
	wg.Wait()

	res := client.BatchResult{Jobs: make([]client.BatchJobResult, len(req.Jobs))}
	for i, out := range outcomes {
		jr := &res.Jobs[i]
		switch {
		case out.result != nil:
			jr.Result = out.result
			res.Completed++
			s.m.batchJobs.With("completed").Inc()
		case out.status == http.StatusRequestTimeout:
			jr.Status, jr.Error = out.status, out.errMsg
			res.Canceled++
			s.m.batchJobs.With("canceled").Inc()
		default:
			jr.Status, jr.Error = out.status, out.errMsg
			res.Failed++
			s.m.batchJobs.With("failed").Inc()
		}
	}
	s.m.batchLatency.Observe(time.Since(start).Seconds())
	c.Log.Info("batch completed",
		"jobs", n, "completed", res.Completed, "failed", res.Failed,
		"canceled", res.Canceled, "duration", time.Since(start).String())
	wire.WriteJSON(w, http.StatusOK, &res)
}

// canceledBeforeStart is a batch job's outcome when the batch ended
// before the job got an execution slot.
var canceledBeforeStart = jobOutcome{status: http.StatusRequestTimeout, errMsg: "batch canceled before the job started"}

// rewriteBatchCancel maps a job cut off by the batch deadline (or the
// client going away) onto a batch cancellation: such a job surfaces as a
// wall-clock 504 or a bare 408 from the run, and the per-job error should
// say what actually happened. Jobs that failed on their own terms
// (400/422, genuine per-job limits with the batch context still live)
// keep their status.
func rewriteBatchCancel(batchCtx context.Context, out jobOutcome) jobOutcome {
	if batchCtx.Err() != nil && out.result == nil &&
		(out.status == http.StatusGatewayTimeout || out.status == http.StatusRequestTimeout) {
		out.status = http.StatusRequestTimeout
		out.errMsg = "batch canceled mid-run"
	}
	return out
}

// planBatch validates every job once, settling an invalid job's outcome
// with a per-job 400 (a bad job in a batch never fails the batch) and
// releasing its batch-lane charge, and partitions the rest into groups in
// the order their first jobs appear. Jobs share a group when they share a
// program digest (which hashes the architectural configuration) and
// effective run limits: one shared fetch/decode/issue pass then drives all of them.
// Ganging is server-internal; per-job results are bit-identical to solo
// runs. A traced job or an SMT configuration is a group of one.
func (s *Server) planBatch(req *client.BatchRequest, outcomes []jobOutcome) [][]int {
	var groups [][]int
	byKey := make(map[string]int) // group key → index in groups
	for i := range req.Jobs {
		j := &req.Jobs[i]
		if err := s.validateJob(j); err != nil {
			outcomes[i] = jobOutcome{status: http.StatusBadRequest, errMsg: err.Error()}
			s.batchLane.release(1)
			continue
		}
		if j.Trace || j.Config.ASC().SMT {
			groups = append(groups, []int{i})
			continue
		}
		key := fmt.Sprintf("%s|mc=%d|to=%d", progDigest(j), s.effMaxCycles(j), s.effTimeout(j))
		if g, ok := byKey[key]; ok {
			groups[g] = append(groups[g], i)
			continue
		}
		byKey[key] = len(groups)
		groups = append(groups, []int{i})
	}
	return groups
}
