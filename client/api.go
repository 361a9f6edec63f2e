// Package client is the wire API and Go client for ascd, the MTASC
// simulation-as-a-service daemon (internal/server, cmd/ascd). The request
// and response types here are the canonical JSON schema; the server imports
// them so the two cannot drift.
//
// The v1 wire schema is frozen: fields are never removed or renamed and
// their meanings never change; new optional fields may be added. See
// docs/API.md for the stability contract.
package client

import (
	"fmt"
	"time"

	asc "repro"
)

// MachineConfig selects the simulated architecture for a job. Zero fields
// take the paper-prototype defaults (16 PEs, 16 threads, 8-bit width, 1024
// local memory words, 4-ary broadcast tree).
type MachineConfig struct {
	PEs           int  `json:"pes,omitempty"`
	Threads       int  `json:"threads,omitempty"`
	Width         uint `json:"width,omitempty"`
	LocalMemWords int  `json:"localMemWords,omitempty"`
	Arity         int  `json:"arity,omitempty"`
	SeqMul        bool `json:"seqMul,omitempty"`
	FixedPriority bool `json:"fixedPriority,omitempty"`
	SMT           bool `json:"smt,omitempty"`
}

// ASC converts the wire config into the simulator facade configuration.
func (c MachineConfig) ASC() asc.Config {
	return asc.Config{
		PEs: c.PEs, Threads: c.Threads, Width: c.Width,
		LocalMemWords: c.LocalMemWords, Arity: c.Arity,
		SeqMul: c.SeqMul, FixedPriority: c.FixedPriority, SMT: c.SMT,
	}
}

// RunRequest is a simulation job: exactly one of ASCL (source for the
// associative language compiler) or Asm (MTASC assembly) must be set.
type RunRequest struct {
	ASCL string `json:"ascl,omitempty"`
	Asm  string `json:"asm,omitempty"`

	Config MachineConfig `json:"config"`

	// LocalMem is the PE local-memory image, one row per PE; ScalarMem is
	// the control-unit data memory image (loaded after the program's own
	// .data segment, so it can override it).
	LocalMem  [][]int64 `json:"localMem,omitempty"`
	ScalarMem []int64   `json:"scalarMem,omitempty"`

	// MaxCycles bounds the simulation (0 = server default); requests above
	// the server cap are clamped. TimeoutMs bounds wall-clock time.
	MaxCycles int64 `json:"maxCycles,omitempty"`
	TimeoutMs int64 `json:"timeoutMs,omitempty"`

	// DumpScalar returns the first N scalar-memory words in the result;
	// DumpLocal returns the first N local-memory words of every PE.
	DumpScalar int `json:"dumpScalar,omitempty"`
	DumpLocal  int `json:"dumpLocal,omitempty"`

	// Trace opts into per-job pipeline tracing: the result carries a
	// Figure-2-style pipeline diagram and a stall breakdown of the run.
	// The server bounds the number of retained instruction records, so the
	// diagram covers the most recent instructions of a long run.
	Trace bool `json:"trace,omitempty"`

	// StateDigest asks a session (POST /v1/sessions) for the SHA-256 of
	// its final architectural snapshot in SessionResult.StateDigest, the
	// byte-identity witness of a migrated run. Hashing the image costs
	// host time, so it is off unless asked for; a resumed leg honours the
	// original request's choice. /v1/run and /v1/batch refuse it.
	StateDigest bool `json:"stateDigest,omitempty"`
}

// Trace is the per-job diagnostic rendering returned when
// RunRequest.Trace is set.
type Trace struct {
	// Diagram is the pipeline stage diagram (instructions as rows, cycles
	// as columns) of the traced tail of the run.
	Diagram string `json:"diagram"`
	// Stats is the human-readable stall/idle breakdown by hazard cause.
	Stats string `json:"stats"`
}

// RunResult is a completed simulation.
type RunResult struct {
	Cycles       int64   `json:"cycles"`
	Instructions int64   `json:"instructions"`
	IPC          float64 `json:"ipc"`
	ScalarOps    int64   `json:"scalarOps"`
	ParallelOps  int64   `json:"parallelOps"`
	ReductionOps int64   `json:"reductionOps"`
	IdleCycles   int64   `json:"idleCycles"`

	ScalarMem []int64   `json:"scalarMem,omitempty"`
	LocalMem  [][]int64 `json:"localMem,omitempty"`

	// Asm is the generated MTASC assembly for ASCL jobs.
	Asm string `json:"asm,omitempty"`
	// PoolHit reports whether the job ran on a recycled warm machine.
	PoolHit bool `json:"poolHit"`
	// ProgramCacheHit reports whether the job's program came from the
	// content-addressed compiled-program cache instead of being compiled
	// or assembled for this request.
	ProgramCacheHit bool `json:"programCacheHit"`
	// BlockCacheHit reports whether the cached program already carried its
	// block-compiled form (basic blocks plus fused superinstructions) when
	// this job resolved it. Blocks build lazily on a program's first
	// execution, so the first run of a kernel reports false even when
	// ProgramCacheHit is true; repeat runs report true.
	BlockCacheHit bool `json:"blockCacheHit"`
	// Trace carries the pipeline diagram and stall breakdown when the
	// request set Trace.
	Trace *Trace `json:"trace,omitempty"`
}

// BatchRequest is a set of simulation jobs submitted as one POST
// /v1/batch call. Jobs execute with bounded concurrency and fail
// independently: one bad job yields a per-job error in the BatchResult,
// never a failed batch.
type BatchRequest struct {
	// Jobs are the simulation jobs; the server bounds the count
	// (-batch-max-jobs, default 64).
	Jobs []RunRequest `json:"jobs"`

	// TimeoutMs bounds the whole batch's wall-clock time. When it expires,
	// finished jobs keep their results and unfinished jobs are marked
	// canceled in the response. 0 means no batch-level limit beyond the
	// per-job limits.
	TimeoutMs int64 `json:"timeoutMs,omitempty"`
}

// BatchJobResult is the outcome of one job within a batch: exactly one of
// Result or Error is set.
type BatchJobResult struct {
	// Result is the completed simulation, nil if the job failed or was
	// canceled.
	Result *RunResult `json:"result,omitempty"`
	// Error is the failure text; Status is its HTTP-equivalent status code
	// (the code the same job would have received from POST /v1/run:
	// 400 invalid request, 422 compile/simulation failure, 504 limit
	// exceeded, 408 canceled).
	Error  string `json:"error,omitempty"`
	Status int    `json:"status,omitempty"`
}

// BatchResult is the POST /v1/batch response. Jobs is index-aligned with
// the request's Jobs slice.
type BatchResult struct {
	Jobs      []BatchJobResult `json:"jobs"`
	Completed int              `json:"completed"`
	Failed    int              `json:"failed"`
	Canceled  int              `json:"canceled"`
}

// Metrics is the /metrics payload.
type Metrics struct {
	Requests        int64   `json:"requests"`
	Completed       int64   `json:"completed"`
	Failed          int64   `json:"failed"`
	Rejected        int64   `json:"rejected"`
	Canceled        int64   `json:"canceled"`
	Running         int64   `json:"running"`
	QueueDepth      int64   `json:"queueDepth"`
	QueueCap        int64   `json:"queueCap"`
	Workers         int64   `json:"workers"`
	PoolHits        int64   `json:"poolHits"`
	PoolMisses      int64   `json:"poolMisses"`
	PoolIdle        int64   `json:"poolIdle"`
	CyclesSimulated int64   `json:"cyclesSimulated"`
	LatencyMsP50    float64 `json:"latencyMsP50"`
	LatencyMsP99    float64 `json:"latencyMsP99"`
	// LatencyOverflow counts requests slower than the histogram's largest
	// finite bucket bound. When it is non-zero, a reported quantile equal
	// to the largest bound means "at least this slow" (the underlying
	// bucket is +Inf), not an exact estimate.
	LatencyOverflow int64 `json:"latencyOverflow"`
}

// APIError is a non-2xx response from the daemon.
type APIError struct {
	Status  int    // HTTP status code
	Message string // server-provided error text
	// RequestID is the server-assigned X-Request-Id of the failed call;
	// quote it when correlating with the daemon's logs.
	RequestID string
	// RetryAfter is the server's Retry-After hint on 429/503 responses
	// (zero when absent). The client's retry policy (WithRetry) waits at
	// least this long before the next attempt.
	RetryAfter time.Duration
	// Envelope is the snapshot envelope of a suspended resumable session,
	// set when a 503 carries the drain handshake (see SessionDraining).
	// The retry machinery never resubmits such a call; Session.Run resumes
	// from the envelope instead.
	Envelope *SnapshotEnvelope
}

// Temporary reports whether the error is worth retrying: 429 (queue full)
// and 503 (draining) are load conditions, not request defects.
func (e *APIError) Temporary() bool {
	return e.Status == 429 || e.Status == 503
}

func (e *APIError) Error() string {
	if e.RequestID != "" {
		return fmt.Sprintf("ascd: %d: %s (request-id %s)", e.Status, e.Message, e.RequestID)
	}
	return fmt.Sprintf("ascd: %d: %s", e.Status, e.Message)
}
