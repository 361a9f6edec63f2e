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
	"errors"
	"flag"
	"log/slog"
	"os"
	"strings"

	"repro/internal/gateway"
	"repro/internal/shell"
)

// options is ascgw's command line: the gateway's configuration and the
// process settings around it.
type options struct {
	cfg      gateway.Config
	d        shell.Daemon
	backends string
}

// parseFlags parses ascgw's command line. Each gateway.Config flag takes
// its default from gateway.DefaultConfig, so the defaults have one home
// and -h prints the values the gateway runs with.
func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("ascgw", flag.ContinueOnError)
	o := options{cfg: gateway.DefaultConfig()}
	c := &o.cfg
	fs.StringVar(&o.backends, "backends", "", "comma-separated ascd base URLs (required)")
	fs.IntVar(&c.Replicas, "replicas", c.Replicas, "virtual ring points per backend")
	fs.Float64Var(&c.LoadFactor, "load-factor", c.LoadFactor, "bounded-load factor")
	fs.IntVar(&c.MaxAttempts, "attempts", c.MaxAttempts, "distinct replicas tried before shedding")
	fs.IntVar(&c.MaxInflight, "max-inflight", c.MaxInflight, "run+batch calls in flight through the gateway")
	fs.Int64Var(&c.MaxBodyBytes, "max-body", c.MaxBodyBytes, "request body cap in bytes")
	fs.IntVar(&c.BatchMaxJobs, "batch-max-jobs", c.BatchMaxJobs, "jobs accepted in one gateway batch")
	fs.IntVar(&c.BackendBatchMaxJobs, "backend-batch-max-jobs", c.BackendBatchMaxJobs, "cap on forwarded sub-batches (match the backends' -batch-max-jobs)")
	fs.DurationVar(&c.HealthInterval, "health-interval", c.HealthInterval, "health probe interval per backend")
	fs.DurationVar(&c.HealthTimeout, "health-timeout", c.HealthTimeout, "single health probe timeout")
	fs.IntVar(&c.HealthFailAfter, "health-failures", c.HealthFailAfter, "consecutive probe failures to eject a backend")
	fs.IntVar(&c.HealthRiseAfter, "health-rises", c.HealthRiseAfter, "consecutive probe successes to re-admit a backend")
	fs.DurationVar(&c.ScrapeTimeout, "scrape-timeout", c.ScrapeTimeout, "budget for each backend /metrics or /debug/traces fetch")
	fs.Float64Var(&c.TraceSample, "trace-sample", c.TraceSample, "head-sampling rate for distributed traces in [0,1]")
	fs.DurationVar(&c.TraceSlow, "trace-slow", c.TraceSlow, "always keep traces at least this slow")
	fs.IntVar(&c.TraceRing, "trace-ring", c.TraceRing, "finished traces retained for /debug/traces (negative = off)")
	fs.IntVar(&c.MaxMigrations, "max-migrations", c.MaxMigrations, "envelope hops tried per live session migration")
	return o, o.d.Parse(fs, args, ":8641", "ascgw -backends LIST [flags]")
}

func main() {
	o, err := parseFlags(os.Args[1:])
	os.Exit(o.d.Run("ascgw", err, func(logger *slog.Logger) (shell.Tier, error) {
		if strings.TrimSpace(o.backends) == "" {
			return nil, errors.New("-backends is required (comma-separated ascd base URLs)")
		}
		o.cfg.Backends = strings.Split(o.backends, ",")
		o.cfg.Logger = logger
		return gateway.New(o.cfg)
	}))
}
