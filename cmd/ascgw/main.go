// ascgw is the MTASC fleet gateway: an HTTP front tier that speaks the
// same v1 wire contract as a single ascd (docs/API.md) and routes jobs
// across a fleet of ascd backends by consistent hash of their program
// digest and machine geometry, so repeat traffic for one kernel keeps
// landing on the node whose program cache, warm pool, and gang batching
// are already hot.
//
// Usage:
//
//	ascgw -backends http://h1:8642,http://h2:8642 [flags]
//
//	-addr HOST:PORT     listen address (default :8641)
//	-backends LIST      comma-separated ascd base URLs (required)
//	-replicas N         virtual ring points per backend (default 128)
//	-load-factor C      bounded-load factor; a backend stops taking new
//	                    keys past C times the fleet-average in-flight
//	                    load (default 1.25)
//	-attempts N         distinct replicas tried before shedding (default 3)
//	-max-inflight N     run+batch calls in flight through the gateway;
//	                    beyond it submissions get 429 (default 256)
//	-max-body N         request body cap in bytes (default 32 MiB)
//	-batch-max-jobs N   jobs accepted in one gateway batch (default 256)
//	-backend-batch-max-jobs N
//	                    cap on forwarded sub-batches; must not exceed the
//	                    backends' -batch-max-jobs (default 64)
//	-health-interval D  /healthz probe interval per backend (default 2s)
//	-health-timeout D   single probe timeout (default 1s)
//	-health-failures N  consecutive probe failures to eject (default 3)
//	-health-rises N     consecutive successes to re-admit (default 2)
//	-scrape-timeout D   budget for each backend /metrics fetch during a
//	                    fleet scrape and each backend /debug/traces fetch
//	                    during trace stitching (default 2s)
//	-trace-sample F     deterministic head-sampling rate for distributed
//	                    traces in [0,1]; set the same rate on the backends
//	                    so every tier keeps the same traces (default 0)
//	-trace-slow D       always keep traces at least this slow (default 1s)
//	-trace-ring N       finished traces retained for GET /debug/traces
//	                    (default 256; negative disables tracing)
//	-max-migrations N   envelope hops tried when carrying a live session
//	                    off a draining backend before handing the
//	                    checkpoint back to the client (default 4)
//	-drain-timeout D    how long shutdown waits for in-flight requests
//	-log-level L        debug, info, warn, or error (default info)
//	-log-format F       text or json (default text)
//
// Endpoints: POST /v1/run and POST /v1/batch (routed; batches are split
// by program digest so same-program jobs reach one backend as a gangable
// group), POST /v1/sessions and GET/POST /v1/sessions/{id}[/resume]
// (resumable sessions with transparent live migration),
// POST /v1/admin/drain (checkpoint a backend's live sessions and resume
// them on ring successors), GET /metrics (fleet-wide: gateway asc_gw_*
// series plus every backend's registry, per-sample backend label by
// default, summed with ?view=fleet; ?format=json or Accept:
// application/json answers ascd's JSON view as fleet totals),
// GET /healthz, GET /debug/traces (with ?trace=<id> the
// gateway stitches its own spans with every backend's spans for that
// trace into one fleet-wide waterfall; ?format=waterfall renders it as
// text). See docs/SERVER.md for fleet deployment and
// docs/OBSERVABILITY.md for the asc_gw_* catalog and tracing.
// SIGINT/SIGTERM drain in-flight requests before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/gateway"
)

func main() {
	addr := flag.String("addr", ":8641", "listen address")
	backends := flag.String("backends", "", "comma-separated ascd base URLs (required)")
	replicas := flag.Int("replicas", 128, "virtual ring points per backend")
	loadFactor := flag.Float64("load-factor", 1.25, "bounded-load factor")
	attempts := flag.Int("attempts", 3, "distinct replicas tried before shedding")
	maxInflight := flag.Int("max-inflight", 256, "run+batch calls in flight through the gateway")
	maxBody := flag.Int64("max-body", 32<<20, "request body cap in bytes")
	batchMaxJobs := flag.Int("batch-max-jobs", 256, "jobs accepted in one gateway batch")
	backendBatchMaxJobs := flag.Int("backend-batch-max-jobs", 64, "cap on forwarded sub-batches (match the backends' -batch-max-jobs)")
	healthInterval := flag.Duration("health-interval", 2*time.Second, "health probe interval per backend")
	healthTimeout := flag.Duration("health-timeout", time.Second, "single health probe timeout")
	healthFailures := flag.Int("health-failures", 3, "consecutive probe failures to eject a backend")
	healthRises := flag.Int("health-rises", 2, "consecutive probe successes to re-admit a backend")
	scrapeTimeout := flag.Duration("scrape-timeout", 2*time.Second, "budget for each backend /metrics or /debug/traces fetch")
	traceSample := flag.Float64("trace-sample", 0, "head-sampling rate for distributed traces in [0,1]")
	traceSlow := flag.Duration("trace-slow", time.Second, "always keep traces at least this slow")
	traceRing := flag.Int("trace-ring", 256, "finished traces retained for /debug/traces (negative = off)")
	maxMigrations := flag.Int("max-migrations", 4, "envelope hops tried per live session migration")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "shutdown drain budget")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	logFormat := flag.String("log-format", "text", "log format: text or json")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: ascgw -backends LIST [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if strings.TrimSpace(*backends) == "" {
		fmt.Fprintln(os.Stderr, "ascgw: -backends is required (comma-separated ascd base URLs)")
		os.Exit(2)
	}

	logger, err := buildLogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ascgw: %v\n", err)
		os.Exit(2)
	}

	gw, err := gateway.New(gateway.Config{
		Backends:            strings.Split(*backends, ","),
		Replicas:            *replicas,
		LoadFactor:          *loadFactor,
		MaxAttempts:         *attempts,
		MaxInflight:         *maxInflight,
		MaxBodyBytes:        *maxBody,
		BatchMaxJobs:        *batchMaxJobs,
		BackendBatchMaxJobs: *backendBatchMaxJobs,
		HealthInterval:      *healthInterval,
		HealthTimeout:       *healthTimeout,
		HealthFailAfter:     *healthFailures,
		HealthRiseAfter:     *healthRises,
		ScrapeTimeout:       *scrapeTimeout,
		TraceSample:         *traceSample,
		TraceSlow:           *traceSlow,
		TraceRing:           *traceRing,
		MaxMigrations:       *maxMigrations,
		Logger:              logger,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ascgw: %v\n", err)
		os.Exit(2)
	}

	hs := &http.Server{
		Addr:    *addr,
		Handler: gw.Handler(),
		// Slow-client guards as on ascd; no WriteTimeout because proxied
		// responses legitimately take up to the simulation wall-clock limit.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	errCh := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr, "backends", *backends)
		errCh <- hs.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		logger.Error("serve failed", "error", err.Error())
		os.Exit(1)
	case s := <-sig:
		logger.Info("draining", "signal", s.String(), "budget", drainTimeout.String())
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := gw.Shutdown(ctx); err != nil {
		logger.Error("drain incomplete", "error", err.Error())
	}
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Error("http shutdown", "error", err.Error())
	}
	logger.Info("drained, bye")
}

// buildLogger assembles the slog handler from the -log-level/-log-format
// flags, writing to stderr.
func buildLogger(level, format string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q: want text or json", format)
	}
}
