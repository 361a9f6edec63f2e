// The session lane: resumable jobs that can be checkpointed into snapshot
// envelopes (internal/migrate) and continued on any backend — the serving
// half of live machine migration.
//
// A suspended session carries its envelope to a warm machine on *any*
// backend, pinned by the differential tests: a resumed run's final
// architectural state is bit-identical to an uninterrupted one, and its
// merged instruction counts equal the uninterrupted run's (its cycles to
// within a pipeline refill, since a restore clears the front end).
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
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	asc "repro"
	"repro/client"
	"repro/internal/dtrace"
	"repro/internal/migrate"
	"repro/internal/progcache"
	"repro/internal/shell"
	"repro/internal/wire"
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
	reasonDeadline     = "deadline"
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

// parkSession moves id to the back of the eviction FIFO once its segment
// has ended (a session is in it once), evicting the oldest non-running
// records beyond the retention cap.
func (s *Server) parkSession(id string) {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	if i := slices.Index(s.sessOrder, id); i >= 0 {
		s.sessOrder = slices.Delete(s.sessOrder, i, i+1)
	}
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

// writeSessionOutcome renders a segment's outcome: 200 for completed and
// requested-checkpoint suspensions, the 503 drain handshake for
// drain-triggered ones, and the mapped error status otherwise.
func (s *Server) writeSessionOutcome(w http.ResponseWriter, tr *dtrace.Active, log *slog.Logger, out jobOutcome) {
	switch {
	case out.draining != nil:
		s.m.sessions.With("suspended").Inc()
		log.Info("session suspended", "session_id", out.draining.SessionID, "reason", reasonDraining,
			"consumed_cycles", out.draining.ConsumedCycles, "remaining_cycles", out.draining.RemainingCycles)
		w.Header().Set("Retry-After", "1")
		wire.WriteJSON(w, http.StatusServiceUnavailable, client.SessionDraining{
			Error:    "server draining: resume the attached envelope on another backend",
			Envelope: out.draining,
		})
	case out.sess != nil && out.sess.State == sessSuspended:
		s.m.sessions.With("suspended").Inc()
		log.Info("session suspended", "session_id", out.sess.SessionID, "reason", out.sess.Reason,
			"consumed_cycles", out.sess.Envelope.ConsumedCycles, "remaining_cycles", out.sess.Envelope.RemainingCycles)
		wire.WriteJSON(w, http.StatusOK, out.sess)
	case out.sess != nil:
		s.m.sessions.With("completed").Inc()
		wire.WriteJSON(w, http.StatusOK, out.sess)
	default:
		s.m.sessions.With("failed").Inc()
		tr.SetError()
		wire.WriteError(w, out.status, "%s", out.errMsg)
	}
}

// handleSessions serves POST /v1/sessions (run a session) and
// GET /v1/sessions (list the registry).
func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet {
		s.handleSessionList(w)
		return
	}
	var req client.SessionRequest
	c, ok := s.sh.Request(w, r, shell.Route{Name: "session", Allow: "POST or GET"}, &req)
	defer c.Finish()
	if !ok {
		return
	}
	if err := s.validateSession(&req); err != nil {
		c.Tr.SetError()
		wire.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.serveSegment(w, r, c, solo{req: &req.RunRequest}, func() *session {
		sid := "s" + dtrace.NewID()
		sess := newSession(sid, req.Resumable, req.CheckpointEveryCycles)
		s.registerSession(sess)
		c.Log.Info("session started", "session_id", sid, "resumable", req.Resumable,
			"checkpoint_every", req.CheckpointEveryCycles)
		return sess
	})
}

// validateSession is validate for a session request, which also needs a
// non-negative checkpoint cadence and no trace (trace state is not part of
// the snapshot). A session that could mint an envelope (it is resumable or
// checkpoints periodically) is refused when the envelope's resume request
// would exceed this server's own body limit: no backend configured like it
// could accept that envelope.
func (s *Server) validateSession(req *client.SessionRequest) error {
	if err := s.validate(&req.RunRequest); err != nil {
		return err
	}
	switch {
	case req.CheckpointEveryCycles < 0:
		return errors.New("checkpointEveryCycles must be non-negative")
	case req.Trace:
		return errors.New("sessions do not support trace (trace state is not part of the snapshot); use /v1/run")
	case !req.Resumable && req.CheckpointEveryCycles == 0:
		return nil
	}
	g, _ := req.Config.ASC().Geometry() // validate passed
	if n := migrate.ResumeBytes(req.RunRequest, g.SnapshotBytes); n > s.cfg.MaxBodyBytes {
		return fmt.Errorf("envelope_too_large: this session's envelope could need a %d-byte resume body, over the server's %d-byte request body limit; use fewer PEs, threads or local memory words, or a narrower width",
			n, s.cfg.MaxBodyBytes)
	}
	return nil
}

// serveSegment runs one session segment, a fresh session's or a resumed
// one's: it admits the segment on the session lane, waits for a slot,
// opens the segment's session, then runs job with it and writes the
// outcome. open returns nil when it has answered the request itself.
func (s *Server) serveSegment(w http.ResponseWriter, r *http.Request, c shell.Call, job solo, open func() *session) {
	if !s.sessionLane.admit(w, c.Tr, c.Log, 1) {
		return
	}
	defer s.sessionLane.release(1)
	ctx := dtrace.ContextWith(r.Context(), c.Tr, c.Tr.Root())
	if !s.sessionLane.slot(ctx, c.Log) {
		return // the client went away before the segment started
	}
	defer s.sessionLane.free()
	if job.sess = open(); job.sess == nil {
		return
	}
	// Close the admission race: a drain that started between the guard
	// and registration walked the registry without seeing this session,
	// so re-check and self-signal — the segment then suspends at its
	// first poll boundary.
	if s.sh.Gate.Draining() {
		job.sess.requestCheckpoint(reasonDraining)
	}
	start := time.Now()
	out := s.runSolo(ctx, job)
	s.sh.ObserveLatency(c.Tr, time.Since(start).Seconds())
	s.writeSessionOutcome(w, c.Tr, c.Log, out)
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
	wire.WriteJSON(w, http.StatusOK, out)
}

// handleSessionByID routes /v1/sessions/{id}[/resume|/checkpoint].
func (s *Server) handleSessionByID(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/sessions/")
	sid, action, _ := strings.Cut(rest, "/")
	if !dtrace.ValidID(sid) {
		wire.WriteError(w, http.StatusNotFound, "unknown session")
		return
	}
	switch action {
	case "":
		if r.Method != http.MethodGet {
			wire.WriteError(w, http.StatusMethodNotAllowed, "GET required")
			return
		}
		sess := s.lookupSession(sid)
		if sess == nil {
			wire.WriteError(w, http.StatusNotFound, "unknown session %s", sid)
			return
		}
		wire.WriteJSON(w, http.StatusOK, sess.status())
	case "resume":
		s.handleSessionResume(w, r, sid)
	case "checkpoint":
		s.handleSessionCheckpoint(w, r, sid)
	default:
		wire.WriteError(w, http.StatusNotFound, "unknown session action %q", action)
	}
}

// handleSessionResume continues a session from a snapshot envelope —
// the receiving end of a migration.
func (s *Server) handleSessionResume(w http.ResponseWriter, r *http.Request, sid string) {
	var req client.ResumeRequest
	c, ok := s.sh.Request(w, r, shell.Route{Name: "resume", Allow: "POST"}, &req)
	defer c.Finish()
	if !ok {
		return
	}
	env := req.Envelope
	if env == nil {
		c.Tr.SetError()
		wire.WriteError(w, http.StatusBadRequest, "resume requires an envelope")
		return
	}
	if env.SessionID != sid {
		c.Tr.SetError()
		wire.WriteError(w, http.StatusBadRequest, "envelope session id %q does not match path %q", env.SessionID, sid)
		return
	}
	if err := migrate.Validate(env); err != nil {
		c.Tr.SetError()
		var stale *migrate.StaleError
		if errors.As(err, &stale) {
			wire.WriteError(w, http.StatusConflict, "%v", err)
		} else {
			wire.WriteError(w, http.StatusBadRequest, "invalid envelope: %v", err)
		}
		return
	}
	if err := s.validate(&env.Request); err != nil {
		c.Tr.SetError()
		wire.WriteError(w, http.StatusBadRequest, "envelope request: %v", err)
		return
	}
	s.serveSegment(w, r, c, solo{req: &env.Request, env: env}, func() *session {
		sess, err := s.adoptSession(env)
		if err != nil {
			c.Tr.SetError()
			wire.WriteError(w, http.StatusConflict, "%v", err)
			return nil
		}
		s.m.resumedJobs.Inc()
		c.Log.Info("session resumed", "session_id", sid,
			"consumed_cycles", env.ConsumedCycles, "remaining_cycles", env.RemainingCycles,
			"digest", progcache.ShortDigest(env.Digest))
		return sess
	})
}

// handleSessionCheckpoint asks a running session to suspend and returns
// its envelope once it has.
func (s *Server) handleSessionCheckpoint(w http.ResponseWriter, r *http.Request, sid string) {
	var none struct{} // the request has no body, or an empty object
	c, ok := s.sh.Request(w, r, shell.Route{Name: "checkpoint", Allow: "POST", EmptyOK: true}, &none)
	defer c.Finish()
	if !ok {
		return
	}
	sess := s.lookupSession(sid)
	if sess == nil {
		wire.WriteError(w, http.StatusNotFound, "unknown session %s", sid)
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
		wire.WriteJSON(w, http.StatusAccepted, st)
	case sessFailed:
		wire.WriteError(w, http.StatusConflict, "session %s already failed: %s", sid, st.Error)
	default:
		wire.WriteJSON(w, http.StatusOK, st)
	}
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
	s.sh.Gate.Close()
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
	s.sh.Log.Info("drain complete", "suspended", len(res.Suspended), "still_running", res.Running)
	return res
}

// handleDrain serves POST /v1/admin/drain: ascd's snapshot-export-on-drain
// entry point, called by an operator or by ascgw's drain orchestration.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	// An empty body drains with the defaults.
	var req client.DrainRequest
	c, ok := s.sh.Request(w, r, shell.Route{Name: "drain", Allow: "POST", EmptyOK: true}, &req)
	defer c.Finish()
	if !ok {
		return
	}
	wait := time.Duration(req.TimeoutMs) * time.Millisecond
	wire.WriteJSON(w, http.StatusOK, s.Drain(wait))
}
