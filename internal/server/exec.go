// The executor: the one job pipeline every lane runs through.
//
//	resolve → checkout → run → result
//
// resolve compiles a plan's program once (through progcache, or by
// re-establishing a migrated envelope's digest). A solo job — a /v1/run
// job, a batch group of one, a session segment — then runs in runSolo,
// the only solo checkout; a larger batch group runs in runGang as one gang
// of the lanes whose images load, a diverging lane included (the gang
// finishes it on a fork of its own front end). Both build their wire
// result in newResult. A solo job starts fresh from its request's memory
// images or continues from an accepted session envelope. Each segment
// folds its statistics into the simulation metrics where it ran, and a job
// is observed once, where it finishes. The lanes differ only in their
// admission lane (see lane) and wire shape.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"time"

	asc "repro"
	"repro/client"
	"repro/internal/dtrace"
	"repro/internal/machine"
	"repro/internal/migrate"
	"repro/internal/progcache"
)

// resolved is a plan's program: the shared artifact, whether the program
// cache served it, and whether the artifact already carried its
// block-compiled form at resolve time. Blocks build lazily on first
// execution, so lanes of one plan must not observe the blocks their own
// leader's first run built.
type resolved struct {
	art         progcache.Program
	cacheHit    bool
	blocksBuilt bool
}

// resolve runs once per plan — a /v1/run job, a batch group, or a session
// segment — and owns the compile span. A fresh job
// compiles through the content-addressed cache; a resume re-validates
// its envelope's digest against the cache (recompiling on a miss), and a
// mismatch is a 409 "stale_snapshot:", never a silent recompute.
func (s *Server) resolve(ctx context.Context, req *client.RunRequest, env *client.SnapshotEnvelope) (resolved, *jobOutcome) {
	_, csp := dtrace.Start(ctx, "compile", dtrace.Str("kind", sourceKind(req)))
	var (
		p    resolved
		fail *jobOutcome
	)
	if env == nil {
		p.art, p.cacheHit, fail = s.compileJob(req)
	} else {
		var err error
		p.art, p.cacheHit, err = migrate.Resolve(s.progs, env, func() (progcache.Program, error) {
			art, _, fail := s.compileJob(req)
			if fail != nil {
				return progcache.Program{}, errors.New(fail.errMsg)
			}
			return art, nil
		})
		var stale *migrate.StaleError
		switch {
		case errors.As(err, &stale):
			fail = &jobOutcome{status: http.StatusConflict, errMsg: stale.Error()}
		case err != nil:
			fail = &jobOutcome{status: http.StatusUnprocessableEntity, errMsg: err.Error()}
		}
	}
	if fail != nil {
		csp.EndErr(fail.errMsg)
		return p, fail
	}
	p.blocksBuilt = p.art.Prog.BlocksBuilt()
	csp.SetAttr(dtrace.Str("digest", progcache.ShortDigest(p.art.Digest)), dtrace.Bool("cache_hit", p.cacheHit))
	csp.End()
	return p, nil
}

// solo is a solo job: its request and where it starts. A run, a batch
// group of one or a fresh session starts from the request's memory images
// (env is nil); a session resume continues from env, the envelope resolve
// re-validates. sess is nil for jobs that never checkpoint.
type solo struct {
	req  *client.RunRequest
	sess *session
	env  *client.SnapshotEnvelope
}

// failed settles a session segment's record as failed; for a job without
// a session it only passes the outcome through.
func (s *Server) failed(sess *session, out jobOutcome) jobOutcome {
	if sess != nil {
		sess.fail(out.errMsg)
		s.parkSession(sess.id)
	}
	return out
}

// runSolo resolves a solo job's program, checks out a machine (warm, or
// restored from the envelope's snapshot), simulates in checkpoint-bounded
// chunks until the machine halts, the budget runs out, or a checkpoint
// request suspends it into a fresh envelope, and builds the result. The
// segment folds its own statistics into the simulation metrics, and a job
// that finishes here is observed once, from its whole-job statistics.
func (s *Server) runSolo(ctx context.Context, r solo) jobOutcome {
	req, sess := r.req, r.sess
	plan, fail := s.resolve(ctx, req, r.env)
	if fail != nil {
		return s.failed(sess, *fail)
	}
	cfg := req.Config.ASC()
	if req.Trace {
		// Bounded record retention: the trace covers the most recent
		// TraceDepth instructions, so tracing a long run cannot OOM the
		// daemon. Traced machines pool separately (TraceDepth is part of
		// the pool key).
		cfg.TraceDepth = s.cfg.TraceDepth
	}
	// A fresh job starts at power-on with the request's whole budget. A
	// resume starts from the envelope's snapshot, after the statistics and
	// cycles of the segments before it, and spends what the envelope says
	// is left, within this server's cap.
	var (
		snapshot []byte
		before   asc.Stats
		consumed int64
		budget   = s.effMaxCycles(req)
	)
	if env := r.env; env != nil {
		snapshot, before, consumed = env.Snapshot, migrate.StatsFromWire(env.Stats), env.ConsumedCycles
		budget = min(max(env.RemainingCycles, 1), s.cfg.MaxCycles)
	}
	// whole is the whole-job view of this segment's statistics.
	whole := func(stats asc.Stats) asc.Stats {
		if r.env == nil {
			return stats
		}
		return mergeStats(before, stats)
	}
	// finish folds the segment that ended the job and observes the job.
	finish := func(stats asc.Stats) asc.Stats {
		s.m.fold(stats)
		all := whole(stats)
		s.m.finished(all)
		return all
	}

	proc, hit, err := s.pool.GetRestored(cfg, plan.art.Prog, snapshot)
	if err != nil {
		s.m.finished(before)
		return s.failed(sess, checkoutFailed(err, r.env != nil))
	}
	defer func() {
		if sess != nil {
			sess.detachProc()
		}
		s.pool.Put(proc)
	}()
	if r.env == nil {
		if fail := loadImages(req, proc.LoadLocalMem, proc.LoadScalarMem); fail != nil {
			return s.failed(sess, *fail)
		}
	}

	var every int64
	if sess != nil {
		// The machine is live from here: a drain can signal it directly.
		sess.attachProc(proc)
		every = sess.every
	}
	timeout := s.effTimeout(req)
	runCtx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	_, esp := dtrace.Start(ctx, "exec", dtrace.Bool("pool_hit", hit))

	// mint seals the quiescent machine into an envelope. Its cumulative
	// cycle count is pinned to the boundary, proc.Cycle(), not to
	// stats.Cycles, which counts in-flight completions past it: those
	// re-run after a restore. A migrated session's merged Cycles then
	// equals an uninterrupted run's to within a pipeline refill (restore
	// clears microarchitectural state); instruction and op counts merge
	// exactly.
	mint := func(stats asc.Stats) *client.SnapshotEnvelope {
		boundary := proc.Cycle()
		all := whole(stats)
		all.Cycles = consumed + boundary
		s.m.sessionCheckpoints.Inc()
		return migrate.Pack(sess.id, *req, plan.art.Digest, proc.Snapshot(),
			consumed+boundary, budget-boundary, sess.checkpoints+1, sess.every, all)
	}
	// suspend parks the session on a segment-ending checkpoint. The
	// segment folds what it ran up to the boundary; the next one folds
	// the in-flight cycles it re-runs.
	suspend := func(stats asc.Stats, fallback string) (*client.SnapshotEnvelope, string) {
		env := mint(stats)
		stats.Cycles = proc.Cycle()
		s.m.fold(stats)
		reason := sess.suspend(env, fallback)
		s.parkSession(sess.id)
		return env, reason
	}

	var stats asc.Stats
	for {
		// Chunk the run at the periodic-checkpoint cadence; the engine's
		// own poll window coarsens very small cadences.
		target := budget
		if every > 0 {
			target = min(proc.Cycle()+every, budget)
		}
		stats, err = proc.RunContext(runCtx, target)
		if err == nil {
			break // halted: completed below
		}
		switch {
		case errors.Is(err, asc.ErrCheckpoint),
			errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil && sess != nil && sess.resumable:
			// A requested checkpoint, or the segment's own wall-clock limit
			// (not the client's deadline) on a resumable session. The machine
			// is quiescent, so suspend rather than lose the work: resuming
			// the envelope runs the next segment.
			fallback := reasonRequested
			if !errors.Is(err, asc.ErrCheckpoint) {
				fallback = reasonDeadline
			}
			env, reason := suspend(stats, fallback)
			esp.SetAttr(dtrace.Int("cycles", stats.Cycles), dtrace.Str("suspended", reason))
			esp.End()
			if reason == reasonDraining {
				return jobOutcome{draining: env}
			}
			return jobOutcome{sess: suspended(env, reason, r.env != nil)}
		case errors.Is(err, asc.ErrCycleLimit) && target < budget:
			// Periodic checkpoint boundary, not the real budget: export the
			// envelope and keep running.
			sess.storeCheckpoint(mint(stats))
			continue
		case errors.Is(err, context.Canceled) && ctx.Err() != nil && sess != nil && sess.resumable:
			// The client went away mid-run. The machine is quiescent, so
			// instead of discarding the work, checkpoint it: the envelope
			// stays exported from GET /v1/sessions/{id} for a rescue. The
			// response goes to a dead connection; the suspended result keeps
			// the metrics honest.
			env, _ := suspend(stats, reasonDisconnected)
			esp.EndErr("client went away; checkpointed")
			return jobOutcome{sess: suspended(env, reasonDisconnected, r.env != nil)}
		default:
			out := runErrOutcome(err, finish(stats), timeout, budget)
			esp.EndErr(out.errMsg)
			return s.failed(sess, out)
		}
	}

	all := finish(stats)
	esp.SetAttr(dtrace.Int("cycles", all.Cycles))
	esp.End()
	var trace *client.Trace
	if req.Trace {
		trace = &client.Trace{Diagram: proc.PipelineDiagram(), Stats: asc.FormatStats(stats)}
	}
	geom, _ := proc.Config().Geometry()
	out := jobOutcome{
		result: newResult(req, plan, all, hit, geom, proc.ScalarMem, proc.LocalMem, trace),
		stats:  all,
	}
	if sess == nil {
		return out
	}
	out.sess = &client.SessionResult{
		SessionID:   sess.id,
		State:       sessCompleted,
		Result:      out.result,
		Resumed:     r.env != nil,
		Checkpoints: sess.checkpoints,
	}
	if req.StateDigest {
		// The byte-identity witness, on request: resumed-after-migration
		// snapshots must hash identically to an uninterrupted run's. The
		// snapshot streams into the hash, so the witness allocates nothing
		// proportional to the machine; hash.Hash writes never fail.
		h := sha256.New()
		_ = proc.WriteSnapshot(h)
		out.sess.StateDigest = hex.EncodeToString(h.Sum(nil))
	}
	sess.complete(out.sess, consumed+proc.Cycle())
	s.parkSession(sess.id)
	return out
}

// checkoutFailed is a job's outcome when no machine could be checked out
// for it, solo or as a gang lane. A refused envelope image (resumed) is a
// conflict: the config/program pair changed underneath it.
func checkoutFailed(err error, resumed bool) jobOutcome {
	switch {
	case errors.Is(err, asc.ErrInvalidProgram):
		return jobOutcome{status: http.StatusUnprocessableEntity, errMsg: fmt.Sprintf("invalid_program: %v", err)}
	case resumed:
		return jobOutcome{status: http.StatusConflict, errMsg: fmt.Sprintf("restoring snapshot: %v", err)}
	}
	return jobOutcome{status: http.StatusBadRequest, errMsg: fmt.Sprintf("building machine: %v", err)}
}

// loadImages loads a fresh job's memory images through a machine's loaders,
// local memory first; runGang passes the machine's image checks instead.
func loadImages(req *client.RunRequest, local func([][]int64) error, scalar func([]int64) error) *jobOutcome {
	if err := local(req.LocalMem); err != nil {
		return &jobOutcome{status: http.StatusBadRequest, errMsg: fmt.Sprintf("loading local memory: %v", err)}
	}
	if err := scalar(req.ScalarMem); err != nil {
		return &jobOutcome{status: http.StatusBadRequest, errMsg: fmt.Sprintf("loading scalar memory: %v", err)}
	}
	return nil
}

// suspended renders a checkpointed session segment's answer.
func suspended(env *client.SnapshotEnvelope, reason string, resumed bool) *client.SessionResult {
	return &client.SessionResult{
		SessionID:   env.SessionID,
		State:       sessSuspended,
		Reason:      reason,
		Envelope:    env,
		Resumed:     resumed,
		Checkpoints: env.Checkpoints,
	}
}

// runGang executes one batch group of two or more jobs in the single
// batch-lane slot its caller holds — that is the amortization: one front
// end's worth of host work drives every lane in the group. Results land in
// outcomes at the group's original batch indices. The checks run resolve
// → images → checkout: a compile failure is every job's, a job whose
// images the machine refuses answers its 400 and stays out, and the rest
// run as one gang of however many lanes that leaves, one included. A
// failed gang checkout is every lane's failed solo checkout. A lane that
// diverges mid-run peels onto a fork of the gang's front end and finishes
// inside the gang's run, so every lane's result is final there.
func (s *Server) runGang(batchCtx context.Context, jobs []client.RunRequest, grp []int, outcomes []jobOutcome) {
	gctx, gsp := dtrace.Start(batchCtx, "gang_group", dtrace.Int("lanes", int64(len(grp))))
	defer gsp.End()

	lead := &jobs[grp[0]]
	plan, fail := s.resolve(gctx, lead, nil)
	if fail != nil {
		// The group shares one program; a compile failure is every job's
		// failure.
		for _, i := range grp {
			outcomes[i] = *fail
		}
		return
	}
	gsp.SetAttr(dtrace.Str("digest", progcache.ShortDigest(plan.art.Digest)))
	cfg := lead.Config.ASC()
	geom, _ := cfg.Geometry() // planBatch validated the config
	mc := machine.Config{PEs: geom.PEs, LocalMemWords: geom.LocalMemWords, ScalarMemWords: geom.ScalarMemWords}
	valid := make([]int, 0, len(grp))
	for _, i := range grp {
		if fail := loadImages(&jobs[i], mc.CheckLocalMem, mc.CheckScalarMem); fail != nil {
			outcomes[i] = *fail
			continue
		}
		valid = append(valid, i)
	}
	if len(valid) == 0 {
		return
	}
	// The plan's resolve counts for the first lane. The others are served
	// from the artifact it cached; resolving them through the cache keeps
	// the hit accounting identical to solo runs (N same-program jobs, at
	// most one compile, N-1 hits).
	lanePlan := func(lane int) resolved {
		p := plan
		if lane > 0 {
			_, p.cacheHit = s.progs.Get(plan.art.Digest)
		}
		return p
	}

	g, poolHit, err := s.pool.GetGang(cfg, plan.art.Prog, len(valid))
	if err != nil {
		out := checkoutFailed(err, false)
		for lane, i := range valid {
			lanePlan(lane) // a failed solo checkout's resolve counts too
			outcomes[i] = out
		}
		return
	}
	defer s.pool.PutGang(g)
	for lane, i := range valid {
		// Neither load can refuse: the lane's images passed the machine's
		// own checks above.
		_ = g.LoadLocalMem(lane, jobs[i].LocalMem)
		_ = g.LoadScalarMem(lane, jobs[i].ScalarMem)
	}
	maxCycles := s.effMaxCycles(lead)
	timeout := s.effTimeout(lead)
	s.m.gangSize.Observe(float64(len(valid)))
	runCtx, cancel := context.WithTimeout(gctx, timeout)
	defer cancel()
	_, esp := dtrace.Start(gctx, "exec", dtrace.Int("lanes", int64(len(valid))), dtrace.Bool("pool_hit", poolHit))
	res := g.RunContext(runCtx, maxCycles)
	var peels int64
	for _, lr := range res {
		if lr.Peeled {
			peels++
		}
	}
	s.m.gangPeels.Add(peels)
	esp.SetAttr(dtrace.Int("peels", peels))
	esp.End()

	for lane, i := range valid {
		s.m.gangJobs.Inc()
		lp := lanePlan(lane)
		lr := &res[lane]
		s.m.fold(lr.Stats)
		s.m.finished(lr.Stats)
		if lr.Err != nil {
			outcomes[i] = rewriteBatchCancel(batchCtx, runErrOutcome(lr.Err, lr.Stats, timeout, maxCycles))
		} else {
			out := newResult(&jobs[i], lp, lr.Stats, poolHit, geom,
				func(w int) int64 { return g.ScalarMem(lane, w) },
				func(pe, w int) int64 { return g.LocalMem(lane, pe, w) }, nil)
			outcomes[i] = jobOutcome{result: out, stats: lr.Stats}
		}
	}
}

// newResult builds a finished job's wire result from its statistics, the
// memory dumps read through the given readers (a solo machine or one gang
// lane; sizes clamp to the machine's geometry, validated at admission),
// and the optional trace.
func newResult(req *client.RunRequest, plan resolved, stats asc.Stats, poolHit bool, geom asc.Geometry,
	scalarAt func(w int) int64, localAt func(pe, w int) int64, trace *client.Trace) *client.RunResult {
	res := &client.RunResult{
		Cycles:          stats.Cycles,
		Instructions:    stats.Instructions,
		IPC:             stats.IPC(),
		ScalarOps:       stats.Scalar,
		ParallelOps:     stats.Parallel,
		ReductionOps:    stats.Reduction,
		IdleCycles:      stats.IdleCycles,
		Asm:             plan.art.Asm,
		PoolHit:         poolHit,
		ProgramCacheHit: plan.cacheHit,
		BlockCacheHit:   plan.cacheHit && plan.blocksBuilt,
		Trace:           trace,
	}
	if req.DumpScalar > 0 {
		res.ScalarMem = make([]int64, min(req.DumpScalar, geom.ScalarMemWords))
		for i := range res.ScalarMem {
			res.ScalarMem[i] = scalarAt(i)
		}
	}
	if req.DumpLocal > 0 {
		n := min(req.DumpLocal, geom.LocalMemWords)
		res.LocalMem = make([][]int64, geom.PEs)
		for pe := range res.LocalMem {
			row := make([]int64, n)
			for w := range row {
				row[w] = localAt(pe, w)
			}
			res.LocalMem[pe] = row
		}
	}
	return res
}

// runErrOutcome maps a simulation error onto the job outcome shared by the
// solo and gang paths.
func runErrOutcome(err error, stats asc.Stats, timeout time.Duration, maxCycles int64) jobOutcome {
	var out jobOutcome
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		out.status, out.errMsg = http.StatusGatewayTimeout,
			fmt.Sprintf("simulation exceeded wall-clock limit %v after %d cycles", timeout, stats.Cycles)
	case errors.Is(err, context.Canceled):
		out.status, out.errMsg = http.StatusRequestTimeout, "client went away"
	case errors.Is(err, asc.ErrCycleLimit):
		out.status, out.errMsg = http.StatusGatewayTimeout,
			fmt.Sprintf("simulation exceeded cycle limit %d", maxCycles)
	default:
		out.status, out.errMsg = http.StatusUnprocessableEntity, fmt.Sprintf("simulation: %v", err)
	}
	return out
}

// mergeStats combines statistics accrued before a starting snapshot (a
// resumed session's earlier segments) with a continuation into one
// whole-job view.
func mergeStats(a, b asc.Stats) asc.Stats {
	out := a
	out.Cycles += b.Cycles
	out.Instructions += b.Instructions
	out.Scalar += b.Scalar
	out.Parallel += b.Parallel
	out.Reduction += b.Reduction
	out.IdleCycles += b.IdleCycles
	out.Contention += b.Contention
	out.Fetches += b.Fetches
	out.Flushes += b.Flushes
	out.BlockDispatches += b.BlockDispatches
	out.IdleByCause = mergeCauses(a.IdleByCause, b.IdleByCause)
	out.StallByCause = mergeCauses(a.StallByCause, b.StallByCause)
	out.BlockFallbacks = mergeCauses(a.BlockFallbacks, b.BlockFallbacks)
	out.PerThread = append([]int64(nil), a.PerThread...)
	for t, v := range b.PerThread {
		if t < len(out.PerThread) {
			out.PerThread[t] += v
		} else {
			out.PerThread = append(out.PerThread, v)
		}
	}
	return out
}

func mergeCauses(a, b map[string]int64) map[string]int64 {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	out := make(map[string]int64, len(a)+len(b))
	for k, v := range a {
		out[k] += v
	}
	for k, v := range b {
		out[k] += v
	}
	return out
}
