// The gateway's half of live migration: transparent session routing.
//
// A resumable session submitted through the gateway behaves like one
// submitted to a single ascd — except that a backend draining mid-job is
// invisible to the client. The backend answers the blocked POST with the
// v1.1 drain handshake (503 plus a snapshot envelope); the gateway catches
// it, walks the session's ring successors, and POSTs the envelope to
// .../resume until a backend carries the job to completion. The client
// sees one request and one result, bit-identical to an uninterrupted run.
//
// POST /v1/admin/drain is the operator's entry point: it removes one
// backend from candidate selection, asks it to drain (suspending its live
// sessions into envelopes), and rescues any suspended session no in-flight
// client request is already migrating — fetching its exported envelope and
// resuming it on a ring successor. The response is a per-session outcome
// ledger.
package gateway

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"repro/client"
	"repro/internal/dtrace"
	"repro/internal/shell"
	"repro/internal/wire"
)

// sessionTableCap bounds the session→backend routing table and the
// migration ledger; beyond it arbitrary old entries are dropped (a lookup
// miss degrades to 404 on GET, nothing else).
const sessionTableCap = 4096

// drainTimeout bounds a whole POST /v1/admin/drain walk — backend drain
// plus orphaned-session rescue — when the request does not set timeoutMs.
const drainTimeout = 60 * time.Second

// migRecord is one session's entry in the migration ledger.
type migRecord struct {
	state string // "migrating", "migrated", "failed"
	to    string
	err   string
}

// recordSessionBackend remembers which backend owns a session so
// GET /v1/sessions/{id} can be proxied there.
func (g *Gateway) recordSessionBackend(sid, backend string) {
	if sid == "" {
		return
	}
	g.sessMu.Lock()
	if len(g.sessBackend) >= sessionTableCap {
		for k := range g.sessBackend {
			delete(g.sessBackend, k)
			break
		}
	}
	g.sessBackend[sid] = backend
	g.sessMu.Unlock()
}

func (g *Gateway) sessionBackend(sid string) string {
	g.sessMu.RLock()
	defer g.sessMu.RUnlock()
	return g.sessBackend[sid]
}

// setDrained removes a backend from candidate selection immediately —
// faster than waiting for its now-failing healthz to eject it.
func (g *Gateway) setDrained(backend string) {
	g.sessMu.Lock()
	g.drained[backend] = true
	g.sessMu.Unlock()
}

func (g *Gateway) isDrained(backend string) bool {
	g.sessMu.RLock()
	defer g.sessMu.RUnlock()
	return g.drained[backend]
}

// claimMigration marks a session as being migrated by an in-flight
// request, so a concurrent admin drain walk reports it "migrating" instead
// of double-resuming the same envelope on two backends.
func (g *Gateway) claimMigration(sid string) {
	g.migMu.Lock()
	if len(g.migLedger) >= sessionTableCap {
		for k := range g.migLedger {
			delete(g.migLedger, k)
			break
		}
	}
	g.migLedger[sid] = &migRecord{state: "migrating"}
	g.migMu.Unlock()
}

func (g *Gateway) settleMigration(sid, state, to, errMsg string) {
	g.migMu.Lock()
	g.migLedger[sid] = &migRecord{state: state, to: to, err: errMsg}
	g.migMu.Unlock()
}

func (g *Gateway) migrationRecord(sid string) *migRecord {
	g.migMu.Lock()
	defer g.migMu.Unlock()
	if rec := g.migLedger[sid]; rec != nil {
		c := *rec
		return &c
	}
	return nil
}

// parseDraining extracts the drain-handshake envelope from a 503 body;
// nil for an ordinary (envelope-less) 503.
func parseDraining(body []byte) *client.SnapshotEnvelope {
	var sd client.SessionDraining
	if wire.Unmarshal(body, &sd) == nil && sd.Envelope != nil {
		return sd.Envelope
	}
	return nil
}

// handleSessions serves POST /v1/sessions (route a session, migrating it
// transparently if its backend drains mid-job) and GET /v1/sessions (the
// fleet-wide session list, concatenated from every backend).
func (g *Gateway) handleSessions(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet {
		g.handleSessionList(w, r)
		return
	}
	var req client.SessionRequest
	c, ok := g.sh.Request(w, r, shell.Route{Name: "session", Allow: "POST or GET", Keep: true}, &req)
	defer c.Finish()
	if !ok {
		return
	}
	start, ok := g.admit(w, c.Tr, "session")
	if !ok {
		return
	}
	defer g.release(c.Tr, start)

	ctx := dtrace.ContextWith(r.Context(), c.Tr, c.Tr.Root())
	h := &hop{path: "/v1/sessions", id: c.ID, body: c.Body, jobs: 1, log: c.Log}
	resp, backend := g.proxyToFleet(ctx, routingKey(&req.RunRequest), h)
	if resp == nil {
		c.Tr.SetError()
		if r.Context().Err() == nil { // otherwise the client is gone: nothing useful can be written
			g.m.sheds.With("session", "saturated").Inc()
			c.Log.Warn("session shed", "reason", "all replicas backpressured")
			g.writeUnavailable(w, http.StatusServiceUnavailable, h.hint, "no backend available for this session")
		}
		return
	}
	if sid := sessionIDFromResult(resp); sid != "" {
		g.recordSessionBackend(sid, backend)
		if h.restarted {
			// A transport failure lost the session before any checkpoint;
			// it started over from scratch on this replica.
			g.m.migrations.With("restarted").Inc()
		}
	}
	c.Log.Debug("session routed", "backend", backend, "status", resp.status)
	relay(w, c.Tr, resp)
}

// sessionIDFromResult pulls the session id out of a 2xx session response.
func sessionIDFromResult(r *backendResponse) string {
	if r.status != http.StatusOK {
		return ""
	}
	// Only the id is read: the decoder skips the result and envelope.
	var sr struct {
		SessionID string `json:"sessionId"`
	}
	if wire.Unmarshal(r.body, &sr) == nil {
		return sr.SessionID
	}
	return ""
}

// migrateSession carries a suspended session's envelope to a ring
// successor and resumes it there, retrying across successors (with
// backoff) up to MaxMigrations envelope hops — a successor draining too
// hands back a fresher envelope and the walk continues from it. While
// some successor answers retryably (its session lane is full), the walk
// keeps re-sweeping until ctx ends: the client request's or the admin
// drain's deadline bounds it, since a busy successor frees a lane when a
// session ends. On success the terminal backend response is returned for
// relay; on exhaustion the latest envelope is wrapped in a gateway-minted
// 503 handshake so the client still holds a resumable checkpoint instead
// of a dead job. A nil response means ctx ended.
func (g *Gateway) migrateSession(ctx context.Context, env *client.SnapshotEnvelope, from string, h *hop) (*backendResponse, string) {
	start := time.Now()
	a, parent := dtrace.FromContext(ctx)
	msp := a.StartSpan("migrate", parent,
		dtrace.Str("session", env.SessionID), dtrace.Str("from", backendLabel(from)))
	defer msp.End()

	// From here the envelope, not the original body, is the job, and the
	// Retry-After hint starts over with it.
	h.jobs, h.hint = 1, 0
	exclude := from
	for n := 0; n < g.cfg.MaxMigrations; n++ {
		body, err := wire.Marshal(&client.ResumeRequest{Envelope: env})
		if err != nil {
			break
		}
		h.path, h.body = "/v1/sessions/"+env.SessionID+"/resume", body
		cands, _ := g.candidates(routingKey(&env.Request))
		handshook := false
		// Sweep the candidate set with backoff escalating 50ms → 1s: a
		// replica answering 429/503 may just be full (another migrated
		// session holding a lane), so no number of refusals is exhaustion.
	sweeps:
		for sweep := 0; ; sweep++ {
			if sweep > 0 {
				wait := min(50*time.Millisecond<<min(sweep-1, 5), time.Second)
				if !sleepCtx(ctx, max(wait, time.Duration(h.hint)*time.Second)) {
					msp.SetAttr(dtrace.Bool("canceled", true))
					return nil, ""
				}
			}
			sawRetryable := false
			for _, b := range cands {
				if b == exclude {
					continue
				}
				if ctx.Err() != nil {
					msp.SetAttr(dtrace.Bool("canceled", true))
					return nil, ""
				}
				r, out := g.attempt(ctx, h, msp, "resume", b, dtrace.Str("backend", backendLabel(b)),
					dtrace.Int("hop", int64(n+1)), dtrace.Int("sweep", int64(sweep+1)))
				switch out {
				case hopCanceled:
					msp.SetAttr(dtrace.Bool("canceled", true))
					return nil, ""
				case hopLost:
					continue
				case hopRetry:
					sawRetryable = true
					continue
				case hopHandshake:
					// The successor is draining too; it handed back a fresher
					// envelope. Spend a hop and keep walking.
					h.log.Info("resume handshake: successor draining too",
						"backend", b, "session_id", env.SessionID)
					env, exclude, handshook = r.handoff, b, true
					break sweeps
				}
				// Terminal answer: the session completed, re-suspended for its
				// own reasons, or failed — either way this backend owns it now.
				g.recordSessionBackend(env.SessionID, b)
				g.m.migrationDur.Observe(time.Since(start).Seconds())
				if r.status == http.StatusOK {
					g.m.migrations.With("migrated").Inc()
					g.settleMigration(env.SessionID, "migrated", b, "")
					msp.SetAttr(dtrace.Str("to", backendLabel(b)), dtrace.Int("hops", int64(n+1)))
					h.log.Info("session migrated", "session_id", env.SessionID,
						"from", from, "to", b, "duration", time.Since(start).String())
				} else {
					g.m.migrations.With("failed").Inc()
					g.settleMigration(env.SessionID, "failed", b, strings.TrimSpace(string(r.body)))
					msp.SetAttr(dtrace.Bool("failed", true))
					h.log.Warn("session migration failed", "session_id", env.SessionID,
						"backend", b, "status", r.status)
				}
				return r, b
			}
			if !sawRetryable {
				break
			}
		}
		if !handshook {
			break // every candidate refused outright; more hops would retread them
		}
	}
	// Exhausted: hand the client the freshest envelope as a gateway-minted
	// handshake so the checkpoint survives and a later resume can finish it.
	g.m.migrations.With("failed").Inc()
	g.m.migrationDur.Observe(time.Since(start).Seconds())
	g.settleMigration(env.SessionID, "failed", "", "no backend could resume the session")
	msp.SetAttr(dtrace.Bool("failed", true))
	h.log.Warn("session migration exhausted", "session_id", env.SessionID, "from", from)
	data, _ := wire.Marshal(&client.SessionDraining{
		Error:    "no backend could resume the session; retry the attached envelope later",
		Envelope: env,
	})
	hdr := http.Header{}
	hdr.Set("Content-Type", "application/json")
	hdr.Set("Retry-After", "2")
	return &backendResponse{status: http.StatusServiceUnavailable, body: data, header: hdr}, ""
}

// sleepCtx sleeps d or until ctx ends; false means ctx ended.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// handleSessionList concatenates every backend's GET /v1/sessions.
func (g *Gateway) handleSessionList(w http.ResponseWriter, r *http.Request) {
	lists := make([]client.SessionList, len(g.cfg.Backends))
	g.getAll(r.Context(), "/v1/sessions", r.Header.Get("X-Request-Id"), func(i int, body []byte) {
		wire.Unmarshal(body, &lists[i])
	})
	out := client.SessionList{Sessions: []client.SessionStatus{}}
	for _, l := range lists {
		out.Sessions = append(out.Sessions, l.Sessions...)
	}
	wire.WriteJSON(w, http.StatusOK, out)
}

// handleSessionByID routes GET /v1/sessions/{id} to the backend the
// session last lived on, and POST /v1/sessions/{id}/resume into the
// migration walk (a client holding an envelope resumes through the
// gateway without knowing the fleet).
func (g *Gateway) handleSessionByID(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/sessions/")
	sid, action, _ := strings.Cut(rest, "/")
	// ascd's id rule, applied before any backend hop: an id it would
	// reject could otherwise smuggle a query or path into the forwarded
	// URL.
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
		b := g.sessionBackend(sid)
		if b == "" {
			wire.WriteError(w, http.StatusNotFound, "session %s was not routed through this gateway", sid)
			return
		}
		resp, err := g.forward(r.Context(), http.MethodGet, b, "/v1/sessions/"+sid, r.Header.Get("X-Request-Id"), "", nil)
		if err != nil {
			wire.WriteError(w, http.StatusBadGateway, "backend %s: %v", backendLabel(b), err)
			return
		}
		relay(w, nil, resp)
	case "resume":
		g.handleSessionResume(w, r, sid)
	default:
		wire.WriteError(w, http.StatusNotFound, "unknown session action %q", action)
	}
}

// handleSessionResume resumes a client-held envelope somewhere in the
// fleet via the same walk a drain migration uses.
func (g *Gateway) handleSessionResume(w http.ResponseWriter, r *http.Request, sid string) {
	var req client.ResumeRequest
	c, ok := g.sh.Request(w, r, shell.Route{Name: "resume", Allow: "POST"}, &req)
	defer c.Finish()
	if !ok {
		return
	}
	if req.Envelope == nil {
		c.Tr.SetError()
		wire.WriteError(w, http.StatusBadRequest, "resume requires an envelope")
		return
	}
	if req.Envelope.SessionID != sid {
		c.Tr.SetError()
		wire.WriteError(w, http.StatusBadRequest, "envelope session id %q does not match path %q", req.Envelope.SessionID, sid)
		return
	}
	start, ok := g.admit(w, c.Tr, "session")
	if !ok {
		return
	}
	defer g.release(c.Tr, start)

	g.claimMigration(sid)
	ctx := dtrace.ContextWith(r.Context(), c.Tr, c.Tr.Root())
	h := &hop{id: c.ID, log: c.Log}
	resp, backend := g.migrateSession(ctx, req.Envelope, "", h)
	if resp == nil {
		c.Tr.SetError()
		if r.Context().Err() == nil { // otherwise the client is gone: nothing useful can be written
			g.writeUnavailable(w, http.StatusServiceUnavailable, h.hint, "no backend available to resume the session")
		}
		return
	}
	c.Log.Debug("resume routed", "backend", backend, "status", resp.status)
	relay(w, c.Tr, resp)
}

// handleAdminDrain serves POST /v1/admin/drain: drain one backend and
// migrate its live sessions to ring successors. The response accounts for
// every session the drain suspended: migrated (rescued to completion by
// this walk), migrating (an in-flight client request is carrying it), or
// failed.
func (g *Gateway) handleAdminDrain(w http.ResponseWriter, r *http.Request) {
	var req client.DrainBackendRequest
	c, ok := g.sh.Request(w, r, shell.Route{Name: "drain", Allow: "POST"}, &req)
	defer c.Finish()
	if !ok {
		return
	}
	backend := strings.TrimRight(strings.TrimSpace(req.Backend), "/")
	if backend != "" && !strings.Contains(backend, "://") {
		backend = "http://" + backend
	}
	if _, ok := g.loads[backend]; !ok {
		c.Tr.SetError()
		wire.WriteError(w, http.StatusNotFound, "backend %q is not configured on this gateway", req.Backend)
		return
	}
	timeout := drainTimeout
	if req.TimeoutMs > 0 {
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(dtrace.ContextWith(r.Context(), c.Tr, c.Tr.Root()), timeout)
	defer cancel()

	c.Log.Info("draining backend", "backend", backend)
	g.setDrained(backend)

	// Ask the backend to drain: it stops admitting, suspends every live
	// resumable session into an envelope, and answers the blocked client
	// POSTs with drain handshakes (which our in-flight session handlers are
	// catching and migrating right now).
	body, _ := wire.Marshal(&client.DrainRequest{TimeoutMs: req.TimeoutMs})
	a, parent := dtrace.FromContext(ctx)
	dsp := a.StartSpan("backend_drain", parent, dtrace.Str("backend", backendLabel(backend)))
	resp, err := g.forward(ctx, http.MethodPost, backend, "/v1/admin/drain", c.ID, a.Traceparent(dsp), body)
	if err != nil {
		dsp.EndErr(err.Error())
		c.Tr.SetError()
		wire.WriteError(w, http.StatusBadGateway, "draining backend %s: %v", backendLabel(backend), err)
		return
	}
	defer resp.raw.Release()
	if resp.status != http.StatusOK {
		dsp.EndErr(fmt.Sprintf("status %d", resp.status))
		c.Tr.SetError()
		wire.WriteError(w, http.StatusBadGateway, "draining backend %s: status %d: %s",
			backendLabel(backend), resp.status, strings.TrimSpace(string(resp.body)))
		return
	}
	dsp.End()
	var dr client.DrainResult
	if err := wire.Unmarshal(resp.body, &dr); err != nil {
		c.Tr.SetError()
		wire.WriteError(w, http.StatusBadGateway, "backend %s returned a malformed drain result", backendLabel(backend))
		return
	}
	c.Log.Info("backend drained", "backend", backend,
		"suspended", len(dr.Suspended), "still_running", dr.Running)

	// Give in-flight client-held sessions a beat to register their claims
	// — their handlers received the handshakes while the backend drain was
	// suspending, and they migrate on their own.
	sleepCtx(ctx, 500*time.Millisecond)

	out := client.DrainBackendResult{Backend: backend, Drained: true, Sessions: []client.MigratedSession{}}
	for _, sid := range dr.Suspended {
		ms := client.MigratedSession{SessionID: sid, From: backend}
		if rec := g.migrationRecord(sid); rec != nil {
			// An in-flight request (or a prior walk) owns this one.
			ms.Outcome, ms.To, ms.Error = rec.state, rec.to, rec.err
		} else {
			ms = g.rescueSession(ctx, backend, sid, c.ID, c.Log)
		}
		switch ms.Outcome {
		case "migrated":
			out.Migrated++
		case "failed":
			out.Failed++
		}
		out.Sessions = append(out.Sessions, ms)
	}
	c.Log.Info("drain walk complete", "backend", backend,
		"migrated", out.Migrated, "failed", out.Failed, "sessions", len(out.Sessions))
	if out.Failed > 0 {
		c.Tr.SetError()
	}
	wire.WriteJSON(w, http.StatusOK, &out)
}

// rescueSession migrates one orphaned suspended session — one no in-flight
// client request claimed (its client disconnected, or it was suspended by
// a periodic checkpoint after its client got its answer): fetch the
// exported envelope from the drained backend and resume it on a ring
// successor, synchronously, bounded by the walk's context.
func (g *Gateway) rescueSession(ctx context.Context, backend, sid, id string, log *slog.Logger) client.MigratedSession {
	ms := client.MigratedSession{SessionID: sid, From: backend}
	st, err := g.forward(ctx, http.MethodGet, backend, "/v1/sessions/"+sid, id, "", nil)
	if err != nil || st.status != http.StatusOK {
		ms.Outcome = "failed"
		ms.Error = fmt.Sprintf("fetching envelope: %v", err)
		if err == nil {
			ms.Error = fmt.Sprintf("fetching envelope: status %d", st.status)
		}
		return ms
	}
	var status client.SessionStatus
	if err := wire.Unmarshal(st.body, &status); err != nil || status.Envelope == nil {
		ms.Outcome = "failed"
		ms.Error = "drained backend exported no envelope for this session"
		return ms
	}
	g.claimMigration(sid)
	resp, to := g.migrateSession(ctx, status.Envelope, backend, &hop{id: id, log: log})
	switch {
	case resp != nil && resp.status == http.StatusOK:
		ms.Outcome, ms.To = "migrated", to
	case resp != nil:
		ms.Outcome = "failed"
		ms.Error = strings.TrimSpace(string(resp.body))
	default:
		ms.Outcome = "failed"
		ms.Error = "migration walk canceled"
	}
	return ms
}
