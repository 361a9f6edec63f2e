package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
)

// The closed loop: each client sends its next call only after the previous
// one returned, taking deck entries from a shared cursor. Calls carry no
// retries, so a 429/503 refusal counts as a failed call.

// callOutcome is one call as the benchmark saw it.
type callOutcome struct {
	jobs   int   // jobs completed with a correct result
	cycles int64 // simulated cycles run for them (both legs of a migration)
	// model and instrs are the cycles and instructions the final results
	// report: each job's whole-run model statistics.
	model, instrs int64
	failed        bool  // an error, a refusal, or a wrong result
	wrong         error // the first wrong result, if any
	errText       string

	nonce              bool
	cacheHits, poolHit int           // jobs reporting programCacheHit / poolHit
	resume             time.Duration // migrate: the resume leg's latency (0 otherwise)
}

// caller issues deck entries against a fleet.
type caller struct {
	d           *deck
	front, back *client.Client
	// meter measures the host's speed between calls.
	meter *hostMeter

	// keepEnvs > 0 keeps the first keepEnvs migrated envelopes for the
	// layer measurements (each holds a megabyte-scale snapshot, so the
	// rest are dropped).
	keepEnvs int
	envMu    sync.Mutex
	envs     []*client.SnapshotEnvelope
}

// newCaller builds the callers' clients over the fleet's transport, wrapped
// by wrap when non-nil.
func newCaller(d *deck, f *fleet, m *hostMeter, wrap func(http.RoundTripper) http.RoundTripper) *caller {
	c := &caller{d: d, front: f.client(f.front, wrap), meter: m}
	if f.back != "" {
		c.back = f.client(f.back, wrap)
	}
	return c
}

// call issues entry e as call number n.
func (c *caller) call(ctx context.Context, e *entry, n int64) (o callOutcome) {
	fail := func(err error) callOutcome {
		o.failed, o.errText = true, err.Error()
		return o
	}
	verify := func(res *client.RunResult, j *job, slack int64) {
		if err := match(res, j.ref, slack); err != nil {
			o.failed = true
			if o.wrong == nil {
				o.wrong = fmt.Errorf("%s: %w", e.kernel, err)
			}
			return
		}
		o.jobs++
		o.cycles += res.Cycles
		o.model += res.Cycles
		o.instrs += res.Instructions
		if res.ProgramCacheHit {
			o.cacheHits++
		}
		if res.PoolHit {
			o.poolHit++
		}
	}
	j := e.jobs[0]
	switch e.kind {
	case callRun:
		req := j.req
		if c.d.nonceEvery > 0 && n%c.d.nonceEvery == c.d.nonceEvery-1 {
			// A per-call comment changes the program digest but not the
			// program: the call misses the program cache and pays compile,
			// decode, and block build on the request path.
			o.nonce = true
			if req.ASCL != "" {
				req.ASCL += fmt.Sprintf("\n// nonce %d\n", n)
			} else {
				req.Asm += fmt.Sprintf("\n; nonce %d\n", n)
			}
		}
		res, err := c.front.Run(ctx, req)
		if err != nil {
			return fail(err)
		}
		verify(res, j, 0)
	case callBatch:
		res, err := c.front.RunBatch(ctx, e.batch())
		if err != nil {
			return fail(err)
		}
		if len(res.Jobs) != len(e.jobs) {
			return fail(fmt.Errorf("batch returned %d jobs, sent %d", len(res.Jobs), len(e.jobs)))
		}
		for i, jr := range res.Jobs {
			if jr.Result == nil {
				o.failed, o.errText = true, jr.Error
				continue
			}
			// Only the peeled lane resumes from a snapshot; the rest finish
			// in lockstep and must match their references exactly.
			slack := int64(0)
			if i == e.divergentLane && i > 0 {
				slack = resumeCycleSlack
			}
			verify(jr.Result, e.jobs[i], slack)
		}
	case callSession, callMigrate:
		s := c.front.NewSession(j.req, client.WithCheckpointEvery(c.d.checkpointEvery))
		res, err := s.Run(ctx)
		if err != nil {
			return fail(err)
		}
		if e.kind == callSession {
			verify(res.Result, j, 0)
			return o
		}
		// Migration: export the latest checkpoint from A and resume it on B.
		// The A leg's result is checked too but the job counts once.
		if err := match(res.Result, j.ref, 0); err != nil {
			o.failed, o.wrong = true, fmt.Errorf("%s (A leg): %w", e.kernel, err)
			return o
		}
		st, err := s.Status(ctx)
		if err != nil {
			return fail(err)
		}
		if st.Envelope == nil {
			return fail(fmt.Errorf("%s: session %s exported no envelope", e.kernel, st.SessionID))
		}
		c.envMu.Lock()
		if len(c.envs) < c.keepEnvs {
			c.envs = append(c.envs, st.Envelope)
		}
		c.envMu.Unlock()
		t0 := time.Now()
		res2, err := c.back.ResumeSession(st.Envelope).Resume(ctx)
		o.resume = time.Since(t0)
		if err != nil {
			return fail(err)
		}
		verify(res2.Result, j, resumeCycleSlack)
		if o.jobs == 1 {
			o.cycles = res.Result.Cycles + res2.Result.Cycles - st.Envelope.ConsumedCycles
		}
	}
	return o
}

// record is one finished call, times relative to its window's start.
type record struct {
	entry      int // position of the call's entry in the deck
	start, end time.Duration
	out        callOutcome
}

// drive runs clients closed-loop callers. With until > 0 it loops over the
// deck until that much time has passed; with until == 0 it makes exactly
// one pass over the deck. rec, when non-nil, records each call's spans.
// It returns every call, in no particular order.
func drive(ctx context.Context, c *caller, until time.Duration, rec *recorder) (records []record) {
	entries := c.d.entries
	var seq atomic.Int64
	per := make([][]record, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				n := seq.Add(1) - 1
				if until == 0 && n >= int64(len(entries)) {
					return
				}
				c.meter.tick(w)
				t0 := time.Since(start)
				if until > 0 && t0 >= until {
					return
				}
				i := int(n % int64(len(entries)))
				e := entries[i]
				cctx := ctx
				var ct *callTrace
				if rec != nil {
					cctx, ct = rec.startCall(ctx, n)
				}
				out := c.call(cctx, e, n)
				if ct != nil {
					ct.finish("call")
				}
				per[w] = append(per[w], record{entry: i, start: t0, end: time.Since(start), out: out})
			}
		}(w)
	}
	wg.Wait()
	for _, r := range per {
		records = append(records, r...)
	}
	return records
}

// windowStats are the raw end-to-end observations of one or more timed
// windows, with the host's speed over them; the metrics are reductions of
// them. Throughput is the window's mean rate and latency pools every call,
// both taken at the reference host speed (see hostspeed.go). The mean pairs
// with the host's mean speed over the same time; a window's fastest slice,
// or each request's fastest call, would pick out moments the host happened
// to be fast, which its mean speed does not describe.
type windowStats struct {
	calls, failed int // calls started in the window, and how many failed
	// jobs and cycles are the correct jobs, and their simulated cycles, done
	// in the window: a call still in flight when it closes counts in
	// proportion to its time inside.
	jobs, cycles float64
	secs         float64   // length of the window
	latency      []float64 // ms, calls completed inside the window
	alloc        uint64    // bytes allocated while the window was open
	// chunks and cpu are the host-speed chunks run inside the window.
	chunks  int
	cpu     time.Duration
	wrong   error
	records []record
}

// add pools another window's observations into w (not its records, which
// only the traced window's layer measurements read).
func (w *windowStats) add(o windowStats) {
	w.calls += o.calls
	w.failed += o.failed
	w.jobs += o.jobs
	w.cycles += o.cycles
	w.secs += o.secs
	w.latency = append(w.latency, o.latency...)
	w.alloc += o.alloc
	w.chunks += o.chunks
	w.cpu += o.cpu
	if w.wrong == nil {
		w.wrong = o.wrong
	}
}

// slowdown is how many times slower than the reference the host ran over
// the window.
func (w *windowStats) slowdown() float64 { return slowdown(hostSpeed(w.chunks, w.cpu)) }

// The reductions below are raw, at the host's measured speed.

func (w *windowStats) jobsPerS() float64 { return ratio(w.jobs, w.secs) }

func (w *windowStats) cyclesPerS() float64 { return ratio(w.cycles, w.secs) }

func (w *windowStats) latencyMs(q float64) float64 {
	s := slices.Clone(w.latency)
	sort.Float64s(s)
	return percentile(s, q)
}

func (w *windowStats) allocPerJob() float64 { return ratio(float64(w.alloc), w.jobs) }

// timedWindow runs the closed loop for dur, starting from a collected heap
// so garbage from set-up is not charged to the window.
func timedWindow(ctx context.Context, c *caller, dur time.Duration, rec *recorder) windowStats {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	done := make(chan struct{})
	go func() {
		// Read the allocation counter when the window closes, not after the
		// stragglers finish.
		t := time.NewTimer(dur)
		defer t.Stop()
		select {
		case <-t.C:
			runtime.ReadMemStats(&m1)
		case <-ctx.Done():
		}
		close(done)
	}()
	from := time.Now()
	records := drive(ctx, c, dur, rec)
	<-done

	ws := windowStats{calls: len(records), records: records, secs: dur.Seconds()}
	ws.chunks, ws.cpu = c.meter.between(from, from.Add(dur))
	if m1.TotalAlloc > m0.TotalAlloc {
		ws.alloc = m1.TotalAlloc - m0.TotalAlloc
	}
	for _, r := range records {
		if r.out.failed {
			ws.failed++
			if ws.wrong == nil && r.out.wrong != nil {
				ws.wrong = r.out.wrong
			}
		}
		if r.end > r.start {
			share := float64(min(r.end, dur)-r.start) / float64(r.end-r.start)
			ws.jobs += float64(r.out.jobs) * share
			ws.cycles += float64(r.out.cycles) * share
		}
		if r.end <= dur {
			ws.latency = append(ws.latency, float64(r.end-r.start)/float64(time.Millisecond))
		}
	}
	return ws
}

// percentile is the nearest-rank percentile of sorted values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median of unsorted values (the input is not modified).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
