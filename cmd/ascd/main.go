// ascd is the MTASC simulation-as-a-service daemon: it serves
// compile-and-simulate jobs over HTTP/JSON through bounded admission
// lanes, executing them on a pool of warm, recyclable simulator machines.
// Two or more same-program jobs in one batch always run as one lockstep
// gang.
//
// Usage:
//
//	ascd [flags]
//
//	-addr HOST:PORT   listen address (default :8642)
//	-workers N        execution slots in each admission lane — /v1/run,
//	                  batches, sessions (default: host CPUs)
//	-queue N          jobs /v1/run and the batch lane each queue beyond
//	                  their slots; beyond that submissions get 429
//	-pool-idle N      warm machines kept between requests (default 2*workers)
//	-max-cycles N     hard per-request cycle cap
//	-timeout D        default per-request wall-clock limit
//	-max-timeout D    cap on requested wall-clock limits
//	-drain-timeout D  how long shutdown waits for in-flight jobs
//	-max-body N       request body size cap in bytes
//	-trace-depth N    instruction records retained for "trace": true jobs
//	-batch-max-jobs N jobs accepted in one POST /v1/batch
//	-program-cache-size N
//	                  compiled programs kept in the content-addressed
//	                  cache (repeat submissions skip the compiler;
//	                  negative disables)
//	-session-retain N parked session records (suspended envelopes and
//	                  completed outcomes) kept for export (default 1024)
//	-session-drain-wait D
//	                  how long POST /v1/admin/drain waits for running
//	                  sessions to reach a checkpoint (default 10s)
//	-trace-sample F   deterministic head-sampling rate for distributed
//	                  traces in [0,1] (default 0: keep only errored, slow,
//	                  or caller-flagged traces)
//	-trace-slow D     always keep traces at least this slow (default 1s)
//	-trace-ring N     finished traces retained for GET /debug/traces
//	                  (default 256; negative disables tracing)
//	-log-level L      debug, info, warn, or error (default info)
//	-log-format F     text or json (default text)
//	-debug-addr A     optional diagnostics listener: net/http/pprof plus
//	                  Go runtime gauges at /metrics (off when empty)
//
// Endpoints: POST /v1/run, POST /v1/batch, POST /v1/sessions,
// GET/POST /v1/sessions/{id}[/resume|/checkpoint], POST /v1/admin/drain,
// GET /metrics (Prometheus text
// exposition; JSON via Accept: application/json or ?format=json),
// GET /healthz, GET /debug/traces (retained distributed traces as JSON).
// See docs/SERVER.md for the API schema, docs/API.md for the v1 stability
// contract, and docs/OBSERVABILITY.md for the metric catalog, tracing,
// log fields, and pprof usage. SIGINT/SIGTERM trigger a
// graceful shutdown that stops admission (503) and drains queued and
// in-flight jobs in every lane.
package main

import (
	"flag"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/shell"
)

// options is ascd's command line: the serving core's configuration and
// the process settings around it.
type options struct {
	cfg       server.Config
	d         shell.Daemon
	debugAddr string
}

// parseFlags parses ascd's command line. Each server.Config flag takes its
// default from server.DefaultConfig, so the defaults have one home and -h
// prints the values the server runs with; -workers and -pool-idle keep 0,
// which the server derives from the host CPU count.
func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("ascd", flag.ContinueOnError)
	o := options{cfg: server.DefaultConfig()}
	c := &o.cfg
	c.Workers, c.PoolIdle = 0, 0
	fs.IntVar(&c.Workers, "workers", 0, "execution slots per admission lane (0 = host CPUs)")
	fs.IntVar(&c.QueueDepth, "queue", c.QueueDepth, "jobs queued beyond the slots in the run and batch lanes")
	fs.IntVar(&c.PoolIdle, "pool-idle", 0, "warm machines kept idle (0 = 2*workers)")
	fs.Int64Var(&c.MaxCycles, "max-cycles", c.MaxCycles, "per-request cycle cap")
	fs.DurationVar(&c.DefaultTimeout, "timeout", c.DefaultTimeout, "default per-request wall-clock limit")
	fs.DurationVar(&c.MaxTimeout, "max-timeout", c.MaxTimeout, "cap on requested wall-clock limits")
	fs.Int64Var(&c.MaxBodyBytes, "max-body", c.MaxBodyBytes, "request body cap in bytes")
	fs.IntVar(&c.TraceDepth, "trace-depth", c.TraceDepth, "instruction records retained for trace-enabled jobs")
	fs.IntVar(&c.BatchMaxJobs, "batch-max-jobs", c.BatchMaxJobs, "jobs accepted in one POST /v1/batch")
	fs.IntVar(&c.ProgramCacheSize, "program-cache-size", c.ProgramCacheSize, "compiled programs kept in the content-addressed cache (negative = off)")
	fs.IntVar(&c.SessionRetain, "session-retain", c.SessionRetain, "parked session records kept for export")
	fs.DurationVar(&c.SessionDrainWait, "session-drain-wait", c.SessionDrainWait, "drain budget for running sessions to reach a checkpoint")
	fs.Float64Var(&c.TraceSample, "trace-sample", c.TraceSample, "head-sampling rate for distributed traces in [0,1]")
	fs.DurationVar(&c.TraceSlow, "trace-slow", c.TraceSlow, "always keep traces at least this slow")
	fs.IntVar(&c.TraceRing, "trace-ring", c.TraceRing, "finished traces retained for /debug/traces (negative = off)")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "diagnostics listener (pprof + runtime metrics); empty = off")
	return o, o.d.Parse(fs, args, ":8642", "ascd [flags]")
}

func main() {
	o, err := parseFlags(os.Args[1:])
	os.Exit(o.d.Run("ascd", err, func(logger *slog.Logger) (shell.Tier, error) {
		o.cfg.Logger = logger
		if o.debugAddr != "" {
			go runDebugListener(o.debugAddr, logger)
		}
		return server.New(o.cfg), nil
	}))
}

// runDebugListener serves the opt-in diagnostics surface on its own
// address, kept off the public API listener: net/http/pprof under
// /debug/pprof/ and Go runtime gauges (goroutines, heap, GC) in
// Prometheus format at /metrics.
func runDebugListener(addr string, logger *slog.Logger) {
	reg := obs.NewRegistry()
	obs.RegisterRuntime(reg)
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	logger.Info("debug listener", "addr", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		logger.Error("debug listener failed", "error", err.Error())
	}
}
