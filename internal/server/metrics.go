package server

import (
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"

	asc "repro"
	"repro/client"
	"repro/internal/obs"
)

// durationBuckets are the asc_request_duration_seconds bucket bounds:
// exponential from a quarter millisecond to the default wall-clock limit.
var durationBuckets = []float64{
	0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// threadBuckets bound the per-job active-thread histogram; the paper's
// prototype has 16 hardware threads, sweeps go wider.
var threadBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// batchSizeBuckets bound the jobs-per-batch histogram; the default
// -batch-max-jobs cap is 64, embedders can raise it.
var batchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// metrics is the serving instrument panel: every counter the server
// maintains lives in one obs.Registry, which renders the Prometheus
// exposition at /metrics; the JSON compat view is projected from that
// same exposition (MetricsView).
type metrics struct {
	reg *obs.Registry

	// Serving-layer instruments.
	requests *obs.Counter    // asc_requests_total: admitted into the queue
	outcomes *obs.CounterVec // asc_jobs_total{outcome}: completed/failed/rejected/canceled
	running  *obs.Gauge      // asc_running_jobs
	latency  *obs.Histogram  // asc_request_duration_seconds

	// Batch-lane instruments: POST /v1/batch admissions and the per-job
	// outcomes inside admitted batches (kept separate from asc_jobs_total
	// so the single-run series stay comparable across versions).
	batchRequests *obs.Counter    // asc_batch_requests_total
	batchRejected *obs.Counter    // asc_batch_rejected_total: whole batches turned away
	batchJobs     *obs.CounterVec // asc_batch_jobs_total{outcome}
	batchSize     *obs.Histogram  // asc_batch_size_jobs
	batchLatency  *obs.Histogram  // asc_batch_duration_seconds

	// Gang instruments: same-program batch jobs executed in lockstep behind
	// one shared front end, and the divergence peels that fell out of it.
	gangJobs  *obs.Counter   // asc_gang_jobs_total
	gangSize  *obs.Histogram // asc_gang_size_jobs
	gangPeels *obs.Counter   // asc_gang_divergence_peels_total

	// Session-lane instruments: resumable jobs, the checkpoints they mint,
	// and the resumes that continue them (locally or after a migration
	// from another backend).
	sessions           *obs.CounterVec // asc_sessions_total{outcome}: completed/suspended/failed/rejected
	sessionCheckpoints *obs.Counter    // asc_session_checkpoints_total
	resumedJobs        *obs.Counter    // asc_resumed_jobs_total

	// Program-cache instruments, mirrored from progcache.Stats at scrape
	// time: how often the compile/assemble front end was skipped entirely.
	progHits      *obs.Counter // asc_program_cache_hits_total
	progMisses    *obs.Counter // asc_program_cache_misses_total
	progEvictions *obs.Counter // asc_program_cache_evictions_total
	progEntries   *obs.Gauge   // asc_program_cache_entries

	// Simulation-depth instruments, folded from each completed job's
	// statistics: the paper's b+r reduction-hazard behavior, live.
	simCycles       *obs.Counter    // asc_sim_cycles_total
	simInstructions *obs.CounterVec // asc_sim_instructions_total{class}
	simIdle         *obs.CounterVec // asc_sim_idle_cycles_total{kind}
	simStall        *obs.CounterVec // asc_sim_stall_cycles_total{kind}
	simFetches      *obs.Counter    // asc_sim_fetches_total
	simFlushes      *obs.Counter    // asc_sim_flushes_total
	simContention   *obs.Counter    // asc_sim_contention_cycles_total
	activeThreads   *obs.Histogram  // asc_sim_active_threads

	// Block-plane instruments: basic-block dispatches taken by the
	// closed-form fast path, and the occasions it handed a cycle back to
	// the generic per-cycle loop, by reason.
	blockDispatches *obs.Counter    // asc_sim_block_dispatches_total
	blockFallbacks  *obs.CounterVec // asc_sim_block_fallbacks_total{reason}

	// Fleet instruments, mirrored from pool.StatsByKey at scrape time.
	poolHits      *obs.CounterVec // asc_pool_hits_total{config}
	poolMisses    *obs.CounterVec // asc_pool_misses_total{config}
	poolEvictions *obs.CounterVec // asc_pool_evictions_total{config}
	poolBuild     *obs.CounterVec // asc_pool_build_nanoseconds_total{config}
	poolIdle      *obs.GaugeVec   // asc_pool_idle_machines{config}
}

func newMetrics() *metrics {
	reg := obs.NewRegistry()
	return &metrics{
		reg:      reg,
		requests: reg.NewCounter("asc_requests_total", "Jobs admitted into the serving queue."),
		outcomes: reg.NewCounterVec("asc_jobs_total",
			"Finished jobs by outcome: completed, failed, rejected (429/503), canceled.", "outcome"),
		running: reg.NewGauge("asc_running_jobs", "/v1/run jobs currently executing."),
		latency: reg.NewHistogram("asc_request_duration_seconds",
			"Wall-clock latency of admitted jobs from enqueue to outcome.", durationBuckets),

		batchRequests: reg.NewCounter("asc_batch_requests_total", "Batches admitted via POST /v1/batch."),
		batchRejected: reg.NewCounter("asc_batch_rejected_total",
			"Whole batches turned away at admission (429 backpressure or 503 draining)."),
		batchJobs: reg.NewCounterVec("asc_batch_jobs_total",
			"Finished batch sub-jobs by outcome: completed, failed, canceled.", "outcome"),
		batchSize: reg.NewHistogram("asc_batch_size_jobs",
			"Jobs per admitted batch.", batchSizeBuckets),
		batchLatency: reg.NewHistogram("asc_batch_duration_seconds",
			"Wall-clock latency of admitted batches from admission to response.", durationBuckets),

		gangJobs: reg.NewCounter("asc_gang_jobs_total",
			"Batch sub-jobs executed in a lockstep gang instead of on a solo machine."),
		gangSize: reg.NewHistogram("asc_gang_size_jobs",
			"Lanes per launched gang.", batchSizeBuckets),
		gangPeels: reg.NewCounter("asc_gang_divergence_peels_total",
			"Lanes that diverged from their gang mid-run and finished on their own copy of the gang's front end."),

		sessions: reg.NewCounterVec("asc_sessions_total",
			"Finished session segments by outcome: completed, suspended (checkpointed into an envelope), failed, rejected.", "outcome"),
		sessionCheckpoints: reg.NewCounter("asc_session_checkpoints_total",
			"Snapshot envelopes minted by running sessions (periodic, requested, and drain checkpoints)."),
		resumedJobs: reg.NewCounter("asc_resumed_jobs_total",
			"Session segments resumed from a snapshot envelope, locally or migrated in from another backend."),

		progHits: reg.NewCounter("asc_program_cache_hits_total",
			"Jobs whose compiled program came from the content-addressed cache."),
		progMisses: reg.NewCounter("asc_program_cache_misses_total",
			"Jobs that had to run the ASCL compiler or assembler."),
		progEvictions: reg.NewCounter("asc_program_cache_evictions_total",
			"Compiled programs dropped by the cache's LRU bound."),
		progEntries: reg.NewGauge("asc_program_cache_entries",
			"Compiled programs currently cached."),

		simCycles: reg.NewCounter("asc_sim_cycles_total", "Simulated machine cycles across all jobs."),
		simInstructions: reg.NewCounterVec("asc_sim_instructions_total",
			"Issued instructions by pipeline class.", "class"),
		simIdle: reg.NewCounterVec("asc_sim_idle_cycles_total",
			"Issue slots no thread could fill, attributed to the hazard of the nearest-ready thread.", "kind"),
		simStall: reg.NewCounterVec("asc_sim_stall_cycles_total",
			"Cycles issued instructions waited beyond the front-end minimum, by binding hazard (the paper's b+r reduction hazard appears as kind=\"reduction\").", "kind"),
		simFetches:    reg.NewCounter("asc_sim_fetches_total", "Instruction-buffer fetches across all jobs."),
		simFlushes:    reg.NewCounter("asc_sim_flushes_total", "Front-end flushes on control redirects across all jobs."),
		simContention: reg.NewCounter("asc_sim_contention_cycles_total", "Ready-but-not-selected thread-cycles across all jobs."),
		activeThreads: reg.NewHistogram("asc_sim_active_threads",
			"Hardware threads that issued at least one instruction, per job.", threadBuckets),

		blockDispatches: reg.NewCounter("asc_sim_block_dispatches_total",
			"Basic blocks dispatched through the closed-form block plane across all jobs."),
		blockFallbacks: reg.NewCounterVec("asc_sim_block_fallbacks_total",
			"Block-plane dispatch attempts handed back to the generic per-cycle loop, by reason: multithread (more than one active hardware thread), refill (fetch buffer not yet holding the block head), boundary (PC outside any block), window (deadlock-detection window would expire).", "reason"),

		poolHits: reg.NewCounterVec("asc_pool_hits_total",
			"Machine checkouts satisfied by a warm machine, per configuration.", "config"),
		poolMisses: reg.NewCounterVec("asc_pool_misses_total",
			"Machine checkouts that had to construct a processor, per configuration.", "config"),
		poolEvictions: reg.NewCounterVec("asc_pool_evictions_total",
			"Machines dropped at check-in because the idle cap was reached, per configuration.", "config"),
		poolBuild: reg.NewCounterVec("asc_pool_build_nanoseconds_total",
			"Wall-clock time spent constructing machines on pool misses, per configuration. Divided by asc_pool_misses_total this is the average cold-start price a miss pays — the cost traces report as the gap between a compile span and its exec span on unpooled configs.", "config"),
		poolIdle: reg.NewGaugeVec("asc_pool_idle_machines",
			"Warm machines currently parked, per configuration.", "config"),
	}
}

// fold accumulates one phase of a simulation — a whole solo run, a gang
// lane's lockstep phase, a session segment — into the cumulative
// simulation-depth counters, where the phase ran. It runs for failed runs
// too (a timed-out job still simulated cycles and stalled on hazards).
func (m *metrics) fold(s asc.Stats) {
	m.simCycles.Add(s.Cycles)
	m.simInstructions.With("scalar").Add(s.Scalar)
	m.simInstructions.With("parallel").Add(s.Parallel)
	m.simInstructions.With("reduction").Add(s.Reduction)
	for kind, v := range s.IdleByCause {
		m.simIdle.With(kind).Add(v)
	}
	for kind, v := range s.StallByCause {
		m.simStall.With(kind).Add(v)
	}
	m.simFetches.Add(s.Fetches)
	m.simFlushes.Add(s.Flushes)
	m.simContention.Add(s.Contention)
	m.blockDispatches.Add(s.BlockDispatches)
	for reason, v := range s.BlockFallbacks {
		m.blockFallbacks.With(reason).Add(v)
	}
}

// finished observes a job that finished, completed or failed, once, from
// its whole-job statistics; a suspended session segment is not finished.
func (m *metrics) finished(all asc.Stats) {
	if all.Instructions > 0 {
		m.activeThreads.Observe(float64(all.ActiveThreads()))
	}
}

// MetricsView projects parsed exposition families onto the JSON /metrics
// view. Counters and gauges are summed over their labels (jobs by
// outcome are read per outcome), so ascd's projection of its own
// exposition reports its own state and ascgw's projection of the
// ?view=fleet sum reports fleet totals.
func MetricsView(fams []*obs.ParsedFamily) client.Metrics {
	byName := make(map[string]*obs.ParsedFamily, len(fams))
	for _, f := range fams {
		byName[f.Name] = f
	}
	// sum adds the samples of one counter or gauge family, keeping only
	// those labeled outcome=<outcome> when outcome is set.
	sum := func(name, outcome string) int64 {
		var t float64
		if f := byName[name]; f != nil {
			for _, s := range f.Samples {
				if outcome == "" || label(s, "outcome") == outcome {
					t += s.Value
				}
			}
		}
		return int64(t)
	}
	m := client.Metrics{
		Requests:        sum("asc_requests_total", ""),
		Completed:       sum("asc_jobs_total", "completed"),
		Failed:          sum("asc_jobs_total", "failed"),
		Rejected:        sum("asc_jobs_total", "rejected"),
		Canceled:        sum("asc_jobs_total", "canceled"),
		Running:         sum("asc_running_jobs", ""),
		QueueDepth:      sum("asc_queue_depth", ""),
		QueueCap:        sum("asc_queue_capacity", ""),
		Workers:         sum("asc_workers", ""),
		PoolHits:        sum("asc_pool_hits_total", ""),
		PoolMisses:      sum("asc_pool_misses_total", ""),
		PoolIdle:        sum("asc_pool_idle_machines", ""),
		CyclesSimulated: sum("asc_sim_cycles_total", ""),
	}
	if f := byName["asc_request_duration_seconds"]; f != nil {
		latencyView(f, &m)
	}
	return m
}

// latencyView fills the JSON view's latency fields from a request-latency
// histogram, summing its buckets over series. A quantile is the upper
// bound of the bucket holding the ceil(q*count)-th request; one that lands
// in the +Inf bucket is clamped to the largest finite bound, and
// LatencyOverflow — the +Inf bucket's own count — tells the reader the
// clamp is in effect.
func latencyView(f *obs.ParsedFamily, m *client.Metrics) {
	cum := map[float64]float64{} // cumulative count by bucket bound, summed over series
	for _, s := range f.Samples {
		if s.Name == f.Name+"_bucket" {
			le, _ := strconv.ParseFloat(label(s, "le"), 64) // ParseText checked it
			cum[le] += s.Value
		}
	}
	les := make([]float64, 0, len(cum))
	for le := range cum {
		les = append(les, le)
	}
	sort.Float64s(les) // +Inf last
	n := len(les)
	if n == 0 || cum[les[n-1]] == 0 {
		return
	}
	total, maxBound, finite := cum[les[n-1]], 0.0, 0.0
	if n > 1 {
		maxBound, finite = les[n-2], cum[les[n-2]]
	}
	quantileMs := func(q float64) float64 {
		rank := math.Max(1, math.Ceil(q*total))
		i := 0
		for i < n-1 && cum[les[i]] < rank {
			i++
		}
		return math.Min(les[i], maxBound) * 1000
	}
	m.LatencyMsP50 = quantileMs(0.50)
	m.LatencyMsP99 = quantileMs(0.99)
	m.LatencyOverflow = int64(total - finite)
}

// label returns the value of s's label name, or "" when it has none.
func label(s obs.ParsedSample, name string) string {
	for _, l := range s.Labels {
		if l.Name == name {
			return l.Value
		}
	}
	return ""
}

// WantsJSON reports whether a GET /metrics asks for the JSON view
// (?format=json or Accept: application/json) instead of the exposition.
func WantsJSON(r *http.Request) bool {
	if r.URL.Query().Get("format") == "json" {
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), "application/json")
}
