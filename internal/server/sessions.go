// The session lane: resumable jobs that can be checkpointed into snapshot
// envelopes (internal/migrate) and continued on any backend — the serving
// half of live machine migration.
//
// A session is the peel/solo-resume machinery of the gang engine lifted one
// level up: where a diverged gang lane carries its snapshot to a solo
// machine on the same backend, a suspended session carries its envelope to
// a warm machine on *any* backend. The same invariant is preserved at both
// levels, pinned by the differential tests: a resumed run's final
// architectural state is bit-identical to an uninterrupted one, and its
// merged statistics equal the uninterrupted run's.
//
// Lifecycle:
//
//	POST /v1/sessions                → run; suspend on drain/checkpoint
//	POST /v1/sessions/{id}/checkpoint → ask a running session to suspend
//	GET  /v1/sessions/{id}           → status + latest envelope (export)
//	POST /v1/sessions/{id}/resume    → continue from an envelope
//	POST /v1/admin/drain             → stop admission, suspend all sessions
//
// A drain-triggered suspension answers the blocked POST with 503 and the
// envelope in the error body (the v1.1 drain handshake); a requested
// checkpoint answers 200 with state "suspended". Either way the envelope
// also stays exported from GET /v1/sessions/{id} until the record ages out.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	asc "repro"
	"repro/client"
	"repro/internal/dtrace"
	"repro/internal/migrate"
	"repro/internal/progcache"
)

// Session states.
const (
	sessRunning   = "running"
	sessSuspended = "suspended"
	sessCompleted = "completed"
	sessFailed    = "failed"
)

// Suspend reasons.
const (
	reasonDraining     = "draining"
	reasonRequested    = "requested"
	reasonDisconnected = "disconnected"
)

// session is one registered session: the registry entry a drain walks and
// a resume adopts. The running segment's handler goroutine owns execution;
// everything here is the cross-goroutine view.
type session struct {
	id string

	mu          sync.Mutex
	state       string
	reason      string // suspend reason, set before the checkpoint lands
	resumable   bool
	every       int64 // periodic checkpoint cadence in cycles (0 = off)
	proc        *asc.Processor
	pendingCkpt bool
	env         *client.SnapshotEnvelope
	result      *client.SessionResult
	errMsg      string
	consumed    int64
	remaining   int64
	checkpoints int64
	// settled is closed when the current running segment ends (suspend or
	// terminal); a fresh channel is made each time the session starts
	// running. Drain waits on it.
	settled chan struct{}
}

func newSession(id string, resumable bool, every int64) *session {
	return &session{
		id:        id,
		state:     sessRunning,
		resumable: resumable,
		every:     every,
		settled:   make(chan struct{}),
	}
}

// requestCheckpoint asks a running resumable session to suspend at its
// next poll-window boundary, recording why. It returns the segment's
// settled channel for waiting. Non-resumable or non-running sessions
// report false.
func (sess *session) requestCheckpoint(reason string) (<-chan struct{}, bool) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.state != sessRunning || !sess.resumable {
		return nil, false
	}
	if sess.reason == "" {
		sess.reason = reason
	}
	sess.pendingCkpt = true
	if sess.proc != nil {
		sess.proc.RequestCheckpoint()
	}
	return sess.settled, true
}

// attachProc hands the running segment's machine to the registry view so a
// drain can signal it, delivering any checkpoint request that arrived
// before the machine existed.
func (sess *session) attachProc(proc *asc.Processor) {
	sess.mu.Lock()
	sess.proc = proc
	pending := sess.pendingCkpt
	sess.mu.Unlock()
	if pending {
		proc.RequestCheckpoint()
	}
}

// detachProc removes the machine from the registry view before it is
// re-parked in the pool, so a late drain signal cannot reach a machine
// that now belongs to another request.
func (sess *session) detachProc() {
	sess.mu.Lock()
	sess.proc = nil
	sess.mu.Unlock()
}

// storeCheckpoint records a periodic envelope while the session keeps
// running.
func (sess *session) storeCheckpoint(env *client.SnapshotEnvelope) {
	sess.mu.Lock()
	sess.env = env
	sess.consumed = env.ConsumedCycles
	sess.remaining = env.RemainingCycles
	sess.checkpoints = env.Checkpoints
	sess.mu.Unlock()
}

// suspend transitions running → suspended with the final envelope of the
// segment, returning the governing reason.
func (sess *session) suspend(env *client.SnapshotEnvelope, fallback string) string {
	sess.mu.Lock()
	reason := sess.reason
	if reason == "" {
		reason = fallback
	}
	sess.state = sessSuspended
	sess.reason = reason
	sess.pendingCkpt = false
	sess.env = env
	sess.consumed = env.ConsumedCycles
	sess.remaining = env.RemainingCycles
	sess.checkpoints = env.Checkpoints
	close(sess.settled)
	sess.mu.Unlock()
	return reason
}

// complete transitions running → completed.
func (sess *session) complete(res *client.SessionResult, consumed int64) {
	sess.mu.Lock()
	sess.state = sessCompleted
	sess.reason = ""
	sess.pendingCkpt = false
	sess.result = res
	sess.consumed = consumed
	sess.remaining = 0
	close(sess.settled)
	sess.mu.Unlock()
}

// fail transitions running → failed.
func (sess *session) fail(errMsg string) {
	sess.mu.Lock()
	sess.state = sessFailed
	sess.pendingCkpt = false
	sess.errMsg = errMsg
	close(sess.settled)
	sess.mu.Unlock()
}

// status renders the registry view.
func (sess *session) status() client.SessionStatus {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return client.SessionStatus{
		SessionID:       sess.id,
		State:           sess.state,
		Resumable:       sess.resumable,
		Reason:          sess.reason,
		ConsumedCycles:  sess.consumed,
		RemainingCycles: sess.remaining,
		Checkpoints:     sess.checkpoints,
		Envelope:        sess.env,
		Result:          sess.result,
		Error:           sess.errMsg,
	}
}

// registerSession adds a session to the registry.
func (s *Server) registerSession(sess *session) {
	s.sessMu.Lock()
	s.sessions[sess.id] = sess
	s.sessMu.Unlock()
}

// lookupSession returns the registry entry for id, nil if unknown.
func (s *Server) lookupSession(id string) *session {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	return s.sessions[id]
}

// parkSession enters id into the eviction FIFO once its segment has ended,
// evicting the oldest non-running records beyond the retention cap.
func (s *Server) parkSession(id string) {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	s.sessOrder = append(s.sessOrder, id)
	for len(s.sessOrder) > s.cfg.SessionRetain {
		old := s.sessOrder[0]
		s.sessOrder = s.sessOrder[1:]
		if sess := s.sessions[old]; sess != nil {
			sess.mu.Lock()
			running := sess.state == sessRunning
			sess.mu.Unlock()
			if !running {
				delete(s.sessions, old)
			}
		}
	}
}

// adoptSession resolves the registry entry a resume continues: a suspended
// (or terminal, being re-driven) local entry flips back to running, and an
// unknown id — a migration arriving from another backend — is registered
// fresh from the envelope. A session already running is a conflict: the
// envelope holder and the running segment cannot both own the machine
// state.
func (s *Server) adoptSession(env *client.SnapshotEnvelope) (*session, error) {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	if sess := s.sessions[env.SessionID]; sess != nil {
		sess.mu.Lock()
		defer sess.mu.Unlock()
		if sess.state == sessRunning {
			return nil, fmt.Errorf("session %s is running", env.SessionID)
		}
		sess.state = sessRunning
		sess.reason = ""
		sess.pendingCkpt = false
		sess.resumable = true
		sess.every = env.CheckpointEveryCycles
		sess.result = nil
		sess.errMsg = ""
		sess.checkpoints = env.Checkpoints
		sess.settled = make(chan struct{})
		return sess, nil
	}
	sess := newSession(env.SessionID, true, env.CheckpointEveryCycles)
	sess.checkpoints = env.Checkpoints
	s.sessions[sess.id] = sess
	return sess, nil
}

// sessionOutcome is what a segment hands back to its HTTP handler: exactly
// one of res (2xx), draining (the 503 handshake envelope), or errMsg/status.
type sessionOutcome struct {
	res      *client.SessionResult
	draining *client.SnapshotEnvelope
	status   int
	errMsg   string
}

// failSession marks the session failed, parks its record, and builds the
// error outcome.
func (s *Server) failSession(sess *session, status int, errMsg string) sessionOutcome {
	sess.fail(errMsg)
	s.parkSession(sess.id)
	return sessionOutcome{status: status, errMsg: errMsg}
}

// runSegment executes one session segment end to end: resolve the program
// (compile, or re-validate a resumed envelope's digest against the cache),
// check out a machine (warm or snapshot-restored), and simulate in
// checkpoint-bounded chunks until the machine halts, the budget runs out,
// or a checkpoint request suspends it into a fresh envelope. env is nil
// for a fresh session and the validated envelope for a resume.
func (s *Server) runSegment(jobCtx context.Context, sess *session, req *client.RunRequest,
	env *client.SnapshotEnvelope, log *slog.Logger) sessionOutcome {

	resumed := env != nil

	_, csp := dtrace.Start(jobCtx, "compile", dtrace.Str("kind", sourceKind(req)))
	var (
		art      progcache.Program
		cacheHit bool
	)
	if resumed {
		var err error
		art, cacheHit, err = migrate.Resolve(s.progs, env, func() (progcache.Program, error) {
			a, _, fail := s.compileJob(req)
			if fail != nil {
				return progcache.Program{}, errors.New(fail.errMsg)
			}
			return a, nil
		})
		var stale *migrate.StaleError
		switch {
		case errors.As(err, &stale):
			csp.EndErr(stale.Error())
			return s.failSession(sess, http.StatusConflict, stale.Error())
		case err != nil:
			csp.EndErr(err.Error())
			return s.failSession(sess, http.StatusUnprocessableEntity, err.Error())
		}
	} else {
		var fail *jobOutcome
		art, cacheHit, fail = s.compileJob(req)
		if fail != nil {
			csp.EndErr(fail.errMsg)
			return s.failSession(sess, fail.status, fail.errMsg)
		}
	}
	blockHit := cacheHit && art.Prog.BlocksBuilt()
	csp.SetAttr(dtrace.Str("digest", progcache.ShortDigest(art.Digest)), dtrace.Bool("cache_hit", cacheHit))
	csp.End()

	cfg := req.Config.ASC()
	var (
		proc *asc.Processor
		hit  bool
		err  error
	)
	if resumed {
		proc, hit, err = s.pool.GetRestored(cfg, art.Prog, env.Snapshot)
	} else {
		proc, hit, err = s.pool.Get(cfg, art.Prog)
	}
	if err != nil {
		switch {
		case errors.Is(err, asc.ErrInvalidProgram):
			return s.failSession(sess, http.StatusUnprocessableEntity, fmt.Sprintf("invalid_program: %v", err))
		case resumed:
			// The envelope passed structural validation but the machine
			// refused the image (fingerprint mismatch: the config/program
			// pair changed underneath it). Conflict, not a server bug.
			return s.failSession(sess, http.StatusConflict, fmt.Sprintf("restoring snapshot: %v", err))
		default:
			return s.failSession(sess, http.StatusBadRequest, fmt.Sprintf("building machine: %v", err))
		}
	}
	defer func() {
		sess.detachProc()
		s.pool.Put(proc)
	}()

	if !resumed {
		if len(req.LocalMem) > 0 {
			if err := proc.LoadLocalMem(req.LocalMem); err != nil {
				return s.failSession(sess, http.StatusBadRequest, fmt.Sprintf("loading local memory: %v", err))
			}
		}
		if len(req.ScalarMem) > 0 {
			if err := proc.LoadScalarMem(req.ScalarMem); err != nil {
				return s.failSession(sess, http.StatusBadRequest, fmt.Sprintf("loading scalar memory: %v", err))
			}
		}
	}

	// Budgets: a fresh segment gets the request's effective cycle budget; a
	// resumed one spends what the envelope says is left, clamped to this
	// server's own cap. Wall-clock budgets are per segment.
	total := s.effMaxCycles(req)
	var baseConsumed int64
	var baseStats asc.Stats
	if resumed {
		total = env.RemainingCycles
		if total > s.cfg.MaxCycles {
			total = s.cfg.MaxCycles
		}
		if total < 1 {
			total = 1
		}
		baseConsumed = env.ConsumedCycles
		baseStats = migrate.StatsFromWire(env.Stats)
	}
	timeout := s.effTimeout(req)

	// The machine is live from here: a drain can signal it directly.
	sess.attachProc(proc)

	runCtx, cancel := context.WithTimeout(jobCtx, timeout)
	defer cancel()

	_, esp := dtrace.Start(jobCtx, "exec",
		dtrace.Bool("pool_hit", hit), dtrace.Bool("resumed", resumed))

	// mint packs the current quiescent machine state into a sealed
	// envelope; boundary is proc.Cycle() (the segment's resume point, the
	// same accounting the gang peel uses — not stats.Cycles, which
	// includes in-flight completions past the boundary). Those in-flight
	// cycles are re-simulated after restore, so the envelope's cumulative
	// cycle count is pinned to the boundary itself: a migrated session's
	// final merged Cycles then equals an uninterrupted run's to within a
	// pipeline refill (restore clears microarchitectural state, so the
	// resumed timeline can differ by a few cycles around the boundary;
	// instruction and op counts merge exactly).
	mint := func(stats asc.Stats) *client.SnapshotEnvelope {
		boundary := proc.Cycle()
		merged := mergeStats(baseStats, stats)
		merged.Cycles = baseConsumed + boundary
		return migrate.Pack(sess.id, *req, art.Digest, proc.Snapshot(),
			baseConsumed+boundary, total-boundary, sess.checkpoints+1, sess.every,
			merged)
	}

	var stats asc.Stats
	for {
		// Chunk the run at the periodic-checkpoint cadence; the engine's
		// own poll window coarsens very small cadences.
		target := total
		if sess.every > 0 {
			if t := proc.Cycle() + sess.every; t < target {
				target = t
			}
		}
		stats, err = proc.RunContext(runCtx, target)
		if err == nil {
			break // halted: completed below
		}
		switch {
		case errors.Is(err, asc.ErrCheckpoint):
			envOut := mint(stats)
			s.m.sessionCheckpoints.Inc()
			s.m.fold(stats)
			reason := sess.suspend(envOut, reasonRequested)
			s.parkSession(sess.id)
			esp.SetAttr(dtrace.Int("cycles", stats.Cycles), dtrace.Str("suspended", reason))
			esp.End()
			log.Info("session suspended", "session_id", sess.id, "reason", reason,
				"consumed_cycles", envOut.ConsumedCycles, "remaining_cycles", envOut.RemainingCycles)
			if reason == reasonDraining {
				return sessionOutcome{draining: envOut}
			}
			return sessionOutcome{res: &client.SessionResult{
				SessionID:   sess.id,
				State:       sessSuspended,
				Reason:      reason,
				Envelope:    envOut,
				Resumed:     resumed,
				Checkpoints: envOut.Checkpoints,
			}}
		case errors.Is(err, asc.ErrCycleLimit) && target < total:
			// Periodic checkpoint boundary, not the real budget: export the
			// envelope and keep running.
			envOut := mint(stats)
			s.m.sessionCheckpoints.Inc()
			sess.storeCheckpoint(envOut)
			continue
		case errors.Is(err, context.Canceled) && jobCtx.Err() != nil && sess.resumable:
			// The client went away mid-run. The machine is quiescent, so
			// instead of discarding the work, checkpoint it: the envelope
			// stays exported from GET /v1/sessions/{id} for a rescue. The
			// response goes to a dead connection; the suspended result keeps
			// the metrics honest.
			envOut := mint(stats)
			s.m.sessionCheckpoints.Inc()
			s.m.fold(stats)
			sess.suspend(envOut, reasonDisconnected)
			s.parkSession(sess.id)
			esp.EndErr("client went away; checkpointed")
			log.Info("session suspended", "session_id", sess.id, "reason", reasonDisconnected)
			return sessionOutcome{res: &client.SessionResult{
				SessionID:   sess.id,
				State:       sessSuspended,
				Reason:      reasonDisconnected,
				Envelope:    envOut,
				Resumed:     resumed,
				Checkpoints: envOut.Checkpoints,
			}}
		default:
			merged := mergeStats(baseStats, stats)
			out := runErrOutcome(err, merged, timeout, total)
			s.m.fold(stats)
			esp.EndErr(out.errMsg)
			sess.fail(out.errMsg)
			s.parkSession(sess.id)
			return sessionOutcome{status: out.status, errMsg: out.errMsg}
		}
	}

	merged := mergeStats(baseStats, stats)
	s.m.fold(stats)
	esp.SetAttr(dtrace.Int("cycles", merged.Cycles))
	esp.End()

	res := baseRunResult(merged, art.Asm, hit, cacheHit, blockHit)
	geom, _ := proc.Config().Geometry()
	dumpMems(req, geom, res, proc.ScalarMem, proc.LocalMem)

	// The byte-identity witness: resumed-after-migration snapshots must
	// hash identically to an uninterrupted run's. The snapshot streams
	// into the hash, so the witness allocates nothing proportional to the
	// machine; hash.Hash writes never fail.
	h := sha256.New()
	_ = proc.WriteSnapshot(h)
	sres := &client.SessionResult{
		SessionID:   sess.id,
		State:       sessCompleted,
		Result:      res,
		Resumed:     resumed,
		Checkpoints: sess.checkpoints,
		StateDigest: hex.EncodeToString(h.Sum(nil)),
	}
	sess.complete(sres, baseConsumed+proc.Cycle())
	s.parkSession(sess.id)
	return sessionOutcome{res: sres}
}

// admitSession performs session-lane admission under the drain guard:
// draining → 503, lane full → 429. On success the caller owns one
// sessionSem slot and a sessionWg count; release undoes both.
func (s *Server) admitSession(w http.ResponseWriter, tr *dtrace.Active, log *slog.Logger) bool {
	admStart := time.Now()
	s.mu.RLock()
	if s.draining {
		s.mu.RUnlock()
		s.m.sessions.With("rejected").Inc()
		log.Warn("session rejected", "reason", "draining")
		tr.Record("admission", nil, admStart, time.Now(), dtrace.Str("outcome", "draining"))
		tr.SetError()
		s.writeUnavailable(w, http.StatusServiceUnavailable, "server is draining")
		return false
	}
	select {
	case s.sessionSem <- struct{}{}:
	default:
		s.mu.RUnlock()
		s.m.sessions.With("rejected").Inc()
		log.Warn("session rejected", "reason", "session lane full", "cap", s.cfg.SessionMaxLive)
		tr.Record("admission", nil, admStart, time.Now(), dtrace.Str("outcome", "lane_full"))
		tr.SetError()
		s.writeUnavailable(w, http.StatusTooManyRequests, "session lane full (%d live)", s.cfg.SessionMaxLive)
		return false
	}
	s.sessionWg.Add(1) // under the RLock: Shutdown cannot start waiting yet
	s.mu.RUnlock()
	tr.Record("admission", nil, admStart, time.Now(), dtrace.Str("outcome", "admitted"))
	return true
}

func (s *Server) releaseSession() {
	<-s.sessionSem
	s.sessionWg.Done()
}

// writeSessionOutcome renders a segment's outcome: 200 for completed and
// requested-checkpoint suspensions, the 503 drain handshake for
// drain-triggered ones, and the mapped error status otherwise.
func (s *Server) writeSessionOutcome(w http.ResponseWriter, tr *dtrace.Active, log *slog.Logger, out sessionOutcome) {
	switch {
	case out.draining != nil:
		s.m.sessions.With("suspended").Inc()
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, client.SessionDraining{
			Error:    "server draining: resume the attached envelope on another backend",
			Envelope: out.draining,
		})
	case out.res != nil && out.res.State == sessSuspended:
		s.m.sessions.With("suspended").Inc()
		writeJSON(w, http.StatusOK, out.res)
	case out.res != nil:
		s.m.sessions.With("completed").Inc()
		writeJSON(w, http.StatusOK, out.res)
	default:
		s.m.sessions.With("failed").Inc()
		tr.SetError()
		writeError(w, out.status, "%s", out.errMsg)
	}
}

// handleSessions serves POST /v1/sessions (run a session) and
// GET /v1/sessions (list the registry).
func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet {
		s.handleSessionList(w)
		return
	}
	id := requestID(r)
	w.Header().Set("X-Request-Id", id)
	log := s.log.With("request_id", id)
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST or GET required")
		return
	}
	tr, log := s.startTrace(w, r, "session", id, log)
	defer tr.Finish()
	var req client.SessionRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		tr.SetError()
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if err := s.validate(&req.RunRequest); err != nil {
		tr.SetError()
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.CheckpointEveryCycles < 0 {
		tr.SetError()
		writeError(w, http.StatusBadRequest, "checkpointEveryCycles must be non-negative")
		return
	}
	if req.Trace {
		tr.SetError()
		writeError(w, http.StatusBadRequest, "sessions do not support trace (trace state is not part of the snapshot); use /v1/run")
		return
	}
	if !s.admitSession(w, tr, log) {
		return
	}
	defer s.releaseSession()

	sid := "s" + newRequestID()
	sess := newSession(sid, req.Resumable, req.CheckpointEveryCycles)
	s.registerSession(sess)
	// Close the admission race: a drain that started between the guard
	// above and registration walked the registry without seeing this
	// session, so re-check and self-signal — the segment then suspends at
	// its first poll boundary.
	s.mu.RLock()
	nowDraining := s.draining
	s.mu.RUnlock()
	if nowDraining {
		sess.requestCheckpoint(reasonDraining)
	}

	log.Info("session started", "session_id", sid, "resumable", req.Resumable,
		"checkpoint_every", req.CheckpointEveryCycles)
	start := time.Now()
	ctx := dtrace.ContextWith(r.Context(), tr, tr.Root())
	out := s.runSegment(ctx, sess, &req.RunRequest, nil, log)
	s.observeLatency(tr, time.Since(start).Seconds())
	s.writeSessionOutcome(w, tr, log, out)
}

func (s *Server) handleSessionList(w http.ResponseWriter) {
	s.sessMu.Lock()
	list := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		list = append(list, sess)
	}
	s.sessMu.Unlock()
	out := client.SessionList{Sessions: make([]client.SessionStatus, 0, len(list))}
	for _, sess := range list {
		out.Sessions = append(out.Sessions, sess.status())
	}
	writeJSON(w, http.StatusOK, out)
}

// handleSessionByID routes /v1/sessions/{id}[/resume|/checkpoint].
func (s *Server) handleSessionByID(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/sessions/")
	sid, action, _ := strings.Cut(rest, "/")
	if sid == "" || len(sid) > 64 || !safeIDRE.MatchString(sid) {
		writeError(w, http.StatusNotFound, "unknown session")
		return
	}
	switch action {
	case "":
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, "GET required")
			return
		}
		sess := s.lookupSession(sid)
		if sess == nil {
			writeError(w, http.StatusNotFound, "unknown session %s", sid)
			return
		}
		writeJSON(w, http.StatusOK, sess.status())
	case "resume":
		s.handleSessionResume(w, r, sid)
	case "checkpoint":
		s.handleSessionCheckpoint(w, r, sid)
	default:
		writeError(w, http.StatusNotFound, "unknown session action %q", action)
	}
}

// handleSessionResume continues a session from a snapshot envelope —
// the receiving end of a migration.
func (s *Server) handleSessionResume(w http.ResponseWriter, r *http.Request, sid string) {
	id := requestID(r)
	w.Header().Set("X-Request-Id", id)
	log := s.log.With("request_id", id)
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	tr, log := s.startTrace(w, r, "resume", id, log)
	defer tr.Finish()
	var req client.ResumeRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		tr.SetError()
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	env := req.Envelope
	if env == nil {
		tr.SetError()
		writeError(w, http.StatusBadRequest, "resume requires an envelope")
		return
	}
	if env.SessionID != sid {
		tr.SetError()
		writeError(w, http.StatusBadRequest, "envelope session id %q does not match path %q", env.SessionID, sid)
		return
	}
	if err := migrate.Validate(env); err != nil {
		tr.SetError()
		writeError(w, http.StatusBadRequest, "invalid envelope: %v", err)
		return
	}
	if err := s.validate(&env.Request); err != nil {
		tr.SetError()
		writeError(w, http.StatusBadRequest, "envelope request: %v", err)
		return
	}
	if !s.admitSession(w, tr, log) {
		return
	}
	defer s.releaseSession()

	sess, err := s.adoptSession(env)
	if err != nil {
		tr.SetError()
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	s.mu.RLock()
	nowDraining := s.draining
	s.mu.RUnlock()
	if nowDraining {
		sess.requestCheckpoint(reasonDraining)
	}

	s.m.resumedJobs.Inc()
	log.Info("session resumed", "session_id", sid,
		"consumed_cycles", env.ConsumedCycles, "remaining_cycles", env.RemainingCycles,
		"digest", progcache.ShortDigest(env.Digest))
	start := time.Now()
	ctx := dtrace.ContextWith(r.Context(), tr, tr.Root())
	out := s.runSegment(ctx, sess, &env.Request, env, log)
	s.observeLatency(tr, time.Since(start).Seconds())
	s.writeSessionOutcome(w, tr, log, out)
}

// handleSessionCheckpoint asks a running session to suspend and returns
// its envelope once it has.
func (s *Server) handleSessionCheckpoint(w http.ResponseWriter, r *http.Request, sid string) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	sess := s.lookupSession(sid)
	if sess == nil {
		writeError(w, http.StatusNotFound, "unknown session %s", sid)
		return
	}
	settled, ok := sess.requestCheckpoint(reasonRequested)
	if ok {
		timer := time.NewTimer(s.cfg.SessionDrainWait)
		defer timer.Stop()
		select {
		case <-settled:
		case <-timer.C:
		case <-r.Context().Done():
			return
		}
	}
	st := sess.status()
	switch st.State {
	case sessRunning:
		// The checkpoint did not land within the wait (or the session is
		// not resumable): report the live state without suspending.
		writeJSON(w, http.StatusAccepted, st)
	case sessFailed:
		writeError(w, http.StatusConflict, "session %s already failed: %s", sid, st.Error)
	default:
		writeJSON(w, http.StatusOK, st)
	}
}

// setDraining stops admission (healthz answers 503, new work is refused)
// without closing the worker queue, so in-flight jobs finish and a later
// Shutdown still closes the queue exactly once.
func (s *Server) setDraining() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Drain puts the server into draining mode and suspends every running
// resumable session into an envelope, waiting up to wait (<= 0: the
// configured default) for the checkpoints to land. It returns the
// suspended session ids and the count still running when the wait
// expired. Draining is not reversible; a drained server serves status
// reads and resumes nothing.
func (s *Server) Drain(wait time.Duration) client.DrainResult {
	if wait <= 0 {
		wait = s.cfg.SessionDrainWait
	}
	s.setDraining()
	type waiter struct {
		sess    *session
		settled <-chan struct{}
	}
	var ws []waiter
	s.sessMu.Lock()
	for _, sess := range s.sessions {
		if settled, ok := sess.requestCheckpoint(reasonDraining); ok {
			ws = append(ws, waiter{sess, settled})
		}
	}
	s.sessMu.Unlock()

	timer := time.NewTimer(wait)
	defer timer.Stop()
	expired := false
	res := client.DrainResult{Draining: true, Suspended: []string{}}
	for _, w := range ws {
		if !expired {
			select {
			case <-w.settled:
			case <-timer.C:
				expired = true
			}
		}
		switch st := w.sess.status(); st.State {
		case sessSuspended:
			res.Suspended = append(res.Suspended, w.sess.id)
		case sessRunning:
			res.Running++
		}
	}
	s.log.Info("drain complete", "suspended", len(res.Suspended), "still_running", res.Running)
	return res
}

// handleDrain serves POST /v1/admin/drain: ascd's snapshot-export-on-drain
// entry point, called by an operator or by ascgw's drain orchestration.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req client.DrainRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	wait := time.Duration(req.TimeoutMs) * time.Millisecond
	writeJSON(w, http.StatusOK, s.Drain(wait))
}
