// The v1.1 wire schema: resumable sessions and the snapshot envelope that
// carries a suspended machine between backends (live migration). Like the
// v1 types in api.go these are canonical — the server and gateway import
// them — and frozen under the same contract: fields are never removed or
// renamed; new optional fields may be added. See docs/API.md §"v1.1
// sessions".

package client

// SessionRequest is a POST /v1/sessions job: a RunRequest plus the session
// contract. With Resumable set the server may answer a drain with 503 and
// a snapshot envelope instead of failing the job; CheckpointEveryCycles
// additionally checkpoints the machine on a fixed cycle cadence so a crash
// loses at most one checkpoint interval.
type SessionRequest struct {
	RunRequest

	// Resumable opts the job into checkpoint/resume: on a server drain the
	// job suspends into a SnapshotEnvelope instead of failing, and the
	// session can be resumed on any backend with POST
	// /v1/sessions/{id}/resume. Resumable sessions cannot request Trace
	// (trace state is host-side and not part of the architectural
	// snapshot).
	Resumable bool `json:"resumable,omitempty"`

	// CheckpointEveryCycles checkpoints the running machine every N
	// simulated cycles (rounded up to the engine's poll window, a few
	// thousand cycles), keeping the latest envelope available from GET
	// /v1/sessions/{id} while the job runs. 0 disables periodic
	// checkpoints; drain-triggered checkpoints work regardless.
	CheckpointEveryCycles int64 `json:"checkpointEveryCycles,omitempty"`
}

// SimStats is the folded simulation statistics carried inside a snapshot
// envelope: the asc_sim_* counters accumulated across all segments of a
// session so far. On resume the server seeds its accounting from these, so
// a migrated session's final stats equal an uninterrupted run's.
type SimStats struct {
	Cycles       int64            `json:"cycles"`
	Instructions int64            `json:"instructions"`
	ScalarOps    int64            `json:"scalarOps"`
	ParallelOps  int64            `json:"parallelOps"`
	ReductionOps int64            `json:"reductionOps"`
	IdleCycles   int64            `json:"idleCycles"`
	IdleByCause  map[string]int64 `json:"idleByCause,omitempty"`
	StallByCause map[string]int64 `json:"stallByCause,omitempty"`
	Contention   int64            `json:"contention"`
	Fetches      int64            `json:"fetches"`
	Flushes      int64            `json:"flushes"`
	PerThread    []int64          `json:"perThread,omitempty"`
}

// SnapshotEnvelope is a suspended session in transit: everything a backend
// that has never seen the session needs to continue it bit-identically.
// Envelopes are versioned (Version), digest-addressed (Digest names the
// compiled program in the content-addressed cache; ConfigKey fingerprints
// the architecture), and self-checking (Sum covers the envelope itself).
// internal/migrate validates all three before any machine state is
// touched.
type SnapshotEnvelope struct {
	// Version is the envelope schema version; currently 2.
	Version int `json:"version"`

	// SessionID names the session across backends; the resume path adopts
	// it so GET /v1/sessions/{id} works wherever the session lands.
	SessionID string `json:"sessionId"`

	// Digest is the content-addressed program-cache key of the compiled
	// program the snapshot was taken under. Resume requires the same
	// digest: a backend whose cache no longer holds it recompiles the
	// embedded request source and verifies the digest matches before
	// restoring — a mismatch is a 409 stale_snapshot rejection, never a
	// silent recompute under a different key.
	Digest string `json:"digest"`

	// ConfigKey is the engine-agnostic architectural fingerprint
	// (progcache.ArchKey) of the machine configuration. Snapshots are
	// engine-portable, so the key deliberately excludes the host engine
	// and trace depth.
	ConfigKey string `json:"configKey"`

	// Request is the original job with the memory images stripped (the
	// snapshot carries all architectural state); source, config, budget,
	// and dump parameters remain so any backend can recompile and finish
	// the job.
	Request RunRequest `json:"request"`

	// Snapshot is the machine's architectural snapshot (base64 on the
	// wire), restorable into any identically configured machine.
	Snapshot []byte `json:"snapshot"`

	// ConsumedCycles is the cumulative simulated-cycle count across every
	// segment of the session so far; RemainingCycles is the budget left.
	// The resume budget is RemainingCycles, clamped to the resuming
	// server's own cap.
	ConsumedCycles  int64 `json:"consumedCycles"`
	RemainingCycles int64 `json:"remainingCycles"`

	// Checkpoints counts envelopes minted for this session so far.
	Checkpoints int64 `json:"checkpoints"`

	// CheckpointEveryCycles carries the session's periodic checkpoint
	// policy across a migration, so a resumed segment keeps the cadence
	// the client asked for.
	CheckpointEveryCycles int64 `json:"checkpointEveryCycles,omitempty"`

	// Stats is the folded simulation statistics across all prior segments.
	Stats SimStats `json:"stats"`

	// Sum is the envelope's own integrity digest (migrate.Seal), covering
	// every field above. Resume verifies it first.
	Sum string `json:"sum,omitempty"`
}

// SessionResult is the POST /v1/sessions (and .../resume) response. State
// is "completed" when the job ran to halt — Result then holds the ordinary
// run result — or "suspended" when a requested checkpoint stopped it, with
// the envelope to resume from. (A drain suspension is delivered as a 503
// with the envelope in the error body instead: see SessionDraining.)
type SessionResult struct {
	SessionID string `json:"sessionId"`
	// State is "completed" or "suspended".
	State string `json:"state"`
	// Reason qualifies a suspension: "requested" (explicit checkpoint),
	// "draining" (server drain), "disconnected" (the client went away) or
	// "deadline" (the segment ran into its wall-clock limit).
	Reason string `json:"reason,omitempty"`
	// Result is the completed simulation; nil while suspended.
	Result *RunResult `json:"result,omitempty"`
	// Envelope is the checkpoint to resume from; set only when suspended.
	// A completed result carries none: GET /v1/sessions/{id} exports the
	// session's latest checkpoint.
	Envelope *SnapshotEnvelope `json:"envelope,omitempty"`
	// Resumed reports that this segment continued from an envelope rather
	// than starting fresh.
	Resumed bool `json:"resumed"`
	// Checkpoints counts envelopes minted across the session's lifetime.
	Checkpoints int64 `json:"checkpoints"`
	// StateDigest is the SHA-256 of the final architectural snapshot on
	// completion, when the request set RunRequest.StateDigest — the
	// byte-identity witness the migration tests compare against an
	// uninterrupted run.
	StateDigest string `json:"stateDigest,omitempty"`
}

// SessionDraining is the error body of a 503 answered to an in-flight
// resumable session when its backend drains: the standard error text plus
// the snapshot envelope to resume elsewhere. This is the v1.1 drain
// handshake — a client (or the gateway, transparently) POSTs the envelope
// to /v1/sessions/{id}/resume on another backend and the job continues.
type SessionDraining struct {
	Error    string            `json:"error"`
	Envelope *SnapshotEnvelope `json:"envelope,omitempty"`
}

// SessionStatus is the GET /v1/sessions/{id} response.
type SessionStatus struct {
	SessionID string `json:"sessionId"`
	// State is "running", "suspended", "completed", or "failed".
	State     string `json:"state"`
	Resumable bool   `json:"resumable"`
	// Reason qualifies a suspended state ("requested", "draining",
	// "disconnected" or "deadline").
	Reason          string `json:"reason,omitempty"`
	ConsumedCycles  int64  `json:"consumedCycles"`
	RemainingCycles int64  `json:"remainingCycles"`
	Checkpoints     int64  `json:"checkpoints"`
	// Envelope is the latest checkpoint for suspended (and periodically
	// checkpointed running) sessions — the drain path's snapshot export.
	Envelope *SnapshotEnvelope `json:"envelope,omitempty"`
	// Result is the terminal outcome for completed sessions.
	Result *SessionResult `json:"result,omitempty"`
	// Error is the failure text for failed sessions.
	Error string `json:"error,omitempty"`
}

// SessionList is the GET /v1/sessions response.
type SessionList struct {
	Sessions []SessionStatus `json:"sessions"`
}

// ResumeRequest is the POST /v1/sessions/{id}/resume body.
type ResumeRequest struct {
	Envelope *SnapshotEnvelope `json:"envelope"`
}

// DrainRequest is the ascd POST /v1/admin/drain body (optional; an empty
// body takes the server's default checkpoint wait).
type DrainRequest struct {
	// TimeoutMs bounds how long the drain waits for running sessions to
	// reach their next checkpoint boundary (0 = server default).
	TimeoutMs int64 `json:"timeoutMs,omitempty"`
}

// DrainResult is the ascd POST /v1/admin/drain response: the server has
// stopped admitting work (healthz now fails, shedding it from gateways)
// and every running resumable session has been suspended into an envelope,
// exported via GET /v1/sessions/{id} and returned to any client still
// blocked on it.
type DrainResult struct {
	Draining bool `json:"draining"`
	// Suspended lists the session ids checkpointed by this drain.
	Suspended []string `json:"suspended"`
	// Running counts sessions that could not be suspended in time (still
	// running when the drain's wait expired).
	Running int `json:"running"`
}

// DrainBackendRequest is the ascgw POST /v1/admin/drain body: drain one
// backend and migrate its live sessions to ring successors.
type DrainBackendRequest struct {
	// Backend is the backend's base URL as configured on the gateway.
	Backend string `json:"backend"`
	// TimeoutMs bounds the whole drain-and-migrate walk (0 = gateway
	// default).
	TimeoutMs int64 `json:"timeoutMs,omitempty"`
}

// MigratedSession is one session's outcome in a gateway drain walk.
type MigratedSession struct {
	SessionID string `json:"sessionId"`
	From      string `json:"from"`
	To        string `json:"to,omitempty"`
	// Outcome is "migrated" (resumed to completion elsewhere),
	// "migrating" (an in-flight client-held session whose migration is
	// still running), or "failed".
	Outcome string `json:"outcome"`
	Error   string `json:"error,omitempty"`
}

// DrainBackendResult is the ascgw POST /v1/admin/drain response.
type DrainBackendResult struct {
	Backend  string            `json:"backend"`
	Drained  bool              `json:"drained"`
	Sessions []MigratedSession `json:"sessions"`
	Migrated int               `json:"migrated"`
	Failed   int               `json:"failed"`
}
