package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"time"

	asc "repro"
	"repro/client"
	"repro/internal/ascl"
	"repro/internal/asm"
	"repro/internal/gateway"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/migrate"
	"repro/internal/network"
	"repro/internal/pool"
	"repro/internal/progcache"
)

// Per-layer measurements of a traced run. Three sources feed them: the
// traced window itself (call spans, per-result flags), counter deltas of
// the fleet's /metrics over that window, and replays after it that call
// each layer's public entry points on the deck's own programs and data.
// Layers a workload does not exercise read 0.

// layerRun is everything the layer measurements read.
type layerRun struct {
	d                 *deck
	f                 *fleet
	envs              []*client.SnapshotEnvelope // envelopes migrated in the traced window
	untraced, traced  windowStats
	delta, cumulative counters // traced-window deltas; totals since boot
	rec               *recorder

	// Warm library-side caches of the serving replay.
	replayCache *progcache.Cache
	replayPool  *pool.Pool
}

// minDur is how long each micro-measurement of a layer replay runs.
const minDur = 40 * time.Millisecond

// perOp runs f in doubling batches until dur has passed and returns the
// mean nanoseconds per call.
func perOp(dur time.Duration, f func()) float64 {
	start := time.Now()
	n := 0
	for batch := 1; ; batch *= 2 {
		for i := 0; i < batch; i++ {
			f()
		}
		n += batch
		if el := time.Since(start); el >= dur {
			return float64(el.Nanoseconds()) / float64(n)
		}
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// sampleEntries returns the first entry of each kernel, in deck order, up
// to n: every kernel of the workload, once.
func sampleEntries(d *deck, n int) []*entry {
	seen := map[string]bool{}
	var out []*entry
	for _, e := range d.entries {
		if !seen[e.kernel] && len(out) < n {
			seen[e.kernel] = true
			out = append(out, e)
		}
	}
	return out
}

// measureLayers computes every per-layer metric.
func measureLayers(ctx context.Context, lr *layerRun) (map[string]float64, error) {
	m := map[string]float64{}
	tr := lr.traced
	calls := float64(tr.calls)

	// Window-derived ratios.
	var jobs, cacheHits, poolHits, plainRuns, plainHits float64
	var resumes []float64
	for _, r := range tr.records {
		o := r.out
		jobs += float64(o.jobs)
		cacheHits += float64(o.cacheHits)
		poolHits += float64(o.poolHit)
		if !o.nonce {
			plainRuns += float64(o.jobs)
			plainHits += float64(o.cacheHits)
		}
		if o.resume > 0 {
			resumes = append(resumes, float64(o.resume)/float64(time.Millisecond))
		}
	}
	m["progcache.hit_ratio"] = ratio(cacheHits, jobs)
	m["pool.hit_ratio"] = ratio(poolHits, jobs)
	// Each half at the reference host speed, so a host that slowed between
	// them is not read as tracing overhead.
	m["obs.trace_overhead_frac"] = 1 - ratio(tr.jobsPerS()*tr.slowdown(), lr.untraced.jobsPerS()*lr.untraced.slowdown())

	// Client layer, from the call spans.
	m["client.encode_us"] = median(lr.rec.durations("client.encode"))
	m["client.decode_us"] = median(lr.rec.durations("client.decode"))
	m["client.wire_kb"] = lr.rec.bytesPerCall() / 1024

	// Counter deltas over the traced window.
	dl := lr.delta
	if lr.f.gw != nil {
		m["gateway.retries_per_1k"] = 1000 * ratio(dl.sum("asc_gw_retries_total"), calls)
		m["gateway.spills_per_1k"] = 1000 * ratio(dl.sum("asc_gw_load_spills_total"), calls)
		m["gateway.affinity_hit_ratio"] = ratio(plainHits, plainRuns)
	}
	m["server.rejected_per_1k"] = 1000 * ratio(dl.sum("asc_jobs_total{outcome=rejected}",
		"asc_batch_rejected_total", "asc_sessions_total{outcome=rejected}"), calls)
	if lr.d.checkpointEvery > 0 {
		// Every call of a session workload starts one session.
		m["server.checkpoints_per_session"] = ratio(dl.sum("asc_session_checkpoints_total"), calls)
	}
	kcycles := dl.sum("asc_sim_cycles_total") / 1000
	for _, reason := range []string{"multithread", "refill", "boundary", "window"} {
		m["core.fallbacks_per_kcycle."+reason] = ratio(dl.sum("asc_sim_block_fallbacks_total{reason="+reason+"}"), kcycles)
	}
	if batchJobs := dl.sum("asc_batch_jobs_total"); batchJobs > 0 {
		m["gang.coverage"] = ratio(dl.sum("asc_gang_jobs_total"), batchJobs)
		m["gang.peels_per_1k_jobs"] = 1000 * ratio(dl.sum("asc_gang_divergence_peels_total"), batchJobs)
	}
	m["pool.build_us_per_miss"] = ratio(lr.cumulative.sum("asc_pool_build_nanoseconds_total"),
		lr.cumulative.sum("asc_pool_misses_total")) / 1000

	// Migration layer, on the envelopes the window actually served.
	if len(lr.envs) > 0 {
		if err := measureMigrate(lr.envs, m); err != nil {
			return nil, err
		}
		m["migrate.resume_ms"] = median(resumes)
	}

	// Replays on the deck's programs and data.
	sample := sampleEntries(lr.d, 8)
	progs, err := distinctPrograms(lr.d)
	if err != nil {
		return nil, err
	}
	if err := measureFrontEnd(progs, sample, m); err != nil {
		return nil, err
	}
	if err := measureCore(sample, m); err != nil {
		return nil, err
	}
	if err := measurePEOps(lr.d, progs, m); err != nil {
		return nil, err
	}
	measureFolds(lr.d.pes, m)
	if err := measureServing(ctx, lr, sample, m); err != nil {
		return nil, err
	}
	return m, nil
}

// measureMigrate times Seal and Verify per MB of served envelope.
func measureMigrate(envs []*client.SnapshotEnvelope, m map[string]float64) error {
	var bytesTotal, sealNs, verifyNs float64
	for _, env := range envs {
		data, err := json.Marshal(env)
		if err != nil {
			return err
		}
		mb := float64(len(data)) / (1 << 20)
		bytesTotal += float64(len(data))
		cp := *env
		sealNs += perOp(minDur, func() { migrate.Seal(&cp) }) / mb
		if err := migrate.Verify(env); err != nil {
			return fmt.Errorf("served envelope fails verification: %w", err)
		}
		verifyNs += perOp(minDur, func() { _ = migrate.Verify(env) }) / mb
	}
	n := float64(len(envs))
	m["migrate.seal_us_per_mb"] = sealNs / n / 1000
	m["migrate.verify_us_per_mb"] = verifyNs / n / 1000
	m["migrate.envelope_kb"] = bytesTotal / n / 1024
	return nil
}

// program is one distinct source of a deck in instruction form.
type program struct {
	req   *client.RunRequest
	insts []isa.Inst
}

// distinctPrograms assembles (or compiles) each distinct source of the deck
// once.
func distinctPrograms(d *deck) ([]program, error) {
	var out []program
	seen := map[string]bool{}
	for _, j := range d.distinctJobs() {
		key := j.req.Asm + "\x00" + j.req.ASCL
		if seen[key] {
			continue
		}
		seen[key] = true
		var insts []isa.Inst
		if j.req.ASCL != "" {
			res, err := ascl.Compile(j.req.ASCL)
			if err != nil {
				return nil, err
			}
			insts = res.Program.Insts
		} else {
			p, err := asm.Assemble(j.req.Asm)
			if err != nil {
				return nil, err
			}
			insts = p.Insts
		}
		out = append(out, program{&j.req, insts})
	}
	return out, nil
}

// measureFrontEnd times the compile front end — assembler, ASCL compiler,
// decode, block build, program-cache lookup, pool checkout — on the
// deck's distinct programs.
func measureFrontEnd(progs []program, sample []*entry, m map[string]float64) error {
	var asmNs, asmKinst, asclNs, asclN, decNs, blkNs, insts float64
	for _, p := range progs {
		if src := p.req.ASCL; src != "" {
			asclNs += perOp(minDur/4, func() { _, _, _ = asc.CompileASCL(src) })
			asclN++
		} else {
			src := p.req.Asm
			asmNs += perOp(minDur/4, func() { _, _ = asm.Assemble(src) })
			asmKinst += float64(len(p.insts)) / 1000
		}
		dp, err := isa.DecodeProgram(p.insts)
		if err != nil {
			return err
		}
		decNs += perOp(minDur/4, func() { _, _ = isa.DecodeProgram(p.insts) })
		blkNs += perOp(minDur/4, func() { isa.BuildBlocks(dp) })
		insts += float64(len(p.insts))
	}
	m["asm.assemble_us_per_kinst"] = ratio(asmNs, asmKinst) / 1000
	m["ascl.compile_us"] = ratio(asclNs, asclN) / 1000
	// One pass over every distinct program: ns per instruction of the set.
	m["isa.decode_ns_per_inst"] = ratio(decNs, insts)
	m["isa.blocks_ns_per_inst"] = ratio(blkNs, insts)

	// Program-cache lookup: digest derivation plus a hit, over the sample.
	cache := progcache.New(128)
	for _, e := range sample {
		r := &e.jobs[0].req
		cache.Put(progcache.RequestDigest(r.ASCL, r.Asm, r.Config.ASC()), progcache.Program{})
	}
	i := 0
	m["progcache.lookup_ns"] = perOp(minDur, func() {
		r := &sample[i%len(sample)].jobs[0].req
		_, _ = cache.Get(progcache.RequestDigest(r.ASCL, r.Asm, r.Config.ASC()))
		i++
	})

	// Warm pool checkout at the workload's main configuration.
	r := &sample[0].jobs[0].req
	prog, err := compileReq(r)
	if err != nil {
		return err
	}
	pl := pool.New(4)
	p, _, err := pl.Get(r.Config.ASC(), prog)
	if err != nil {
		return err
	}
	pl.Put(p)
	var getErr error
	m["pool.checkout_ns"] = perOp(minDur, func() {
		p, _, err := pl.Get(r.Config.ASC(), prog)
		if err != nil {
			getErr = err
			return
		}
		pl.Put(p)
	})
	return getErr
}

// measureCore replays sample jobs through the facade on the serial engine
// (block plane at its default) and, on gang workloads, whole batches
// through a 32-lane gang.
func measureCore(sample []*entry, m map[string]float64) error {
	var ns, cycles, dispatches, redIdle, idle float64
	var snapNs, restNs, snapMB float64
	for i, e := range sample {
		j := e.jobs[0]
		prog, err := compileReq(&j.req)
		if err != nil {
			return err
		}
		cfg := j.req.Config.ASC()
		cfg.Engine = asc.EngineSerial
		p, err := asc.New(cfg, prog)
		if err != nil {
			return err
		}
		if err := loadImages(p, &j.req); err != nil {
			return err
		}
		t0 := time.Now()
		st, err := p.Run(0)
		ns += float64(time.Since(t0).Nanoseconds())
		if err != nil {
			return err
		}
		cycles += float64(st.Cycles)
		dispatches += float64(st.BlockDispatches)
		redIdle += float64(st.IdleByCause["reduction"] + st.IdleByCause["broadcast-reduction"])
		idle += float64(st.IdleCycles)
		if i == 0 {
			// Snapshot and restore of a finished machine at the main config.
			snap := p.Snapshot()
			snapMB = float64(len(snap)) / (1 << 20)
			snapNs = perOp(20*time.Millisecond, func() { _ = p.Snapshot() })
			var rerr error
			restNs = perOp(20*time.Millisecond, func() {
				if err := p.Restore(snap); err != nil {
					rerr = err
				}
			})
			if rerr != nil {
				return rerr
			}
		}
	}
	m["core.ns_per_cycle"] = ratio(ns, cycles)
	m["core.block_dispatch_share"] = ratio(dispatches, cycles)
	m["core.reduction_stall_share"] = ratio(redIdle, cycles)
	m["core.idle_share"] = ratio(idle, cycles)
	m["machine.snapshot_us_per_mb"] = ratio(snapNs, snapMB) / 1000
	m["machine.restore_us_per_mb"] = ratio(restNs, snapMB) / 1000

	var gangNs, laneCycles float64
	for _, e := range sample {
		if e.kind != callBatch {
			continue
		}
		prog, err := compileReq(&e.jobs[0].req)
		if err != nil {
			return err
		}
		g, err := asc.NewGang(e.jobs[0].req.Config.ASC(), prog, len(e.jobs))
		if err != nil {
			return err
		}
		for lane, j := range e.jobs {
			if err := g.LoadLocalMem(lane, j.req.LocalMem); err != nil {
				return err
			}
			if err := g.LoadScalarMem(lane, j.req.ScalarMem); err != nil {
				return err
			}
		}
		t0 := time.Now()
		res := g.Run(0)
		gangNs += float64(time.Since(t0).Nanoseconds())
		for _, r := range res {
			laneCycles += float64(r.Stats.Cycles)
		}
	}
	m["gang.ns_per_lane_cycle"] = ratio(gangNs, laneCycles)
	return nil
}

// peOpClass buckets a parallel micro-op for the PE-kernel rows.
func peOpClass(d *isa.Decoded) string {
	if d.Kind != isa.ExecParallel {
		return ""
	}
	switch d.Par {
	case isa.ParALU, isa.ParIdx, isa.ParImm:
		return "alu"
	case isa.ParCompare:
		return "compare"
	case isa.ParFlag:
		return "flag"
	case isa.ParLoad, isa.ParStore:
		return "loadstore"
	}
	return ""
}

// peMachine is a serial-engine machine sized for the PE-kernel rows. Its
// program is a single nop: the rows execute micro-ops directly, resetting
// the PC before each so it stays inside the program.
func peMachine(pes int) (*machine.Machine, error) {
	nop, err := isa.DecodeProgram([]isa.Inst{{Op: isa.NOP}})
	if err != nil {
		return nil, err
	}
	return machine.NewDecoded(machine.Config{
		PEs: pes, Threads: 1, Width: 16, LocalMemWords: 64, Engine: machine.EngineSerial,
	}, nop)
}

// execClass times one pass over ops per call, returning ns per PE-op. Ops
// that trap on a reset machine are dropped first.
func execClass(mach *machine.Machine, pes int, ops []*isa.Decoded) float64 {
	var ok []*isa.Decoded
	for _, d := range ops {
		mach.Reset()
		if _, err := mach.ExecDecoded(0, d); err == nil {
			ok = append(ok, d)
		}
	}
	if len(ok) == 0 {
		return 0
	}
	mach.Reset()
	ns := perOp(minDur, func() {
		for _, d := range ok {
			mach.SetPC(0, 0)
			mach.ExecDecoded(0, d)
		}
	})
	return ns / float64(len(ok)*pes)
}

// measurePEOps times the PE-array kernels by op class on the deck's own
// parallel micro-ops (and fused block-ops) at the workload's PE count, plus
// the flag row at 65,536 PEs.
func measurePEOps(d *deck, progs []program, m map[string]float64) error {
	classes := map[string][]*isa.Decoded{}
	var fused [][]*isa.Decoded
	for _, p := range progs {
		dp, err := isa.DecodeProgram(p.insts)
		if err != nil {
			return err
		}
		for pc := 0; pc < dp.Len(); pc++ {
			if c := peOpClass(dp.At(pc)); c != "" {
				classes[c] = append(classes[c], dp.At(pc))
			}
		}
		for _, b := range dp.Blocks().Blocks() {
			for _, op := range b.Ops {
				if op.Fuse != isa.FuseNone {
					fused = append(fused, op.Ops)
				}
			}
		}
	}
	mach, err := peMachine(d.pes)
	if err != nil {
		return err
	}
	for _, c := range []string{"alu", "compare", "flag", "loadstore"} {
		m["machine.ns_per_pe_op."+c] = execClass(mach, d.pes, classes[c])
	}
	if len(fused) > 0 {
		constituents := 0
		for _, ops := range fused {
			constituents += len(ops)
		}
		mach.Reset()
		ns := perOp(minDur, func() {
			for _, ops := range fused {
				mach.SetPC(0, 0)
				mach.ExecFused(0, ops)
			}
		})
		m["machine.ns_per_pe_op.fused"] = ns / float64(constituents*d.pes)
	}

	// The flag-plane row at 65,536 PEs: a fixed flag-logic mix.
	const bigPEs = 65536
	prog, err := asm.Assemble("fand f3, f1, f2\nfor f4, f1, f2\nfxor f5, f3, f4\nfandn f6, f5, f1\nfnot f7, f6\n")
	if err != nil {
		return err
	}
	dp, err := isa.DecodeProgram(prog.Insts)
	if err != nil {
		return err
	}
	var flagOps []*isa.Decoded
	for pc := 0; pc < dp.Len(); pc++ {
		flagOps = append(flagOps, dp.At(pc))
	}
	big, err := peMachine(bigPEs)
	if err != nil {
		return err
	}
	m["machine.ns_per_pe_op.flag.p65536"] = execClass(big, bigPEs, flagOps)
	return nil
}

// measureFolds times the reduction-tree folds per leaf at the workload's PE
// count (and the OR fold at 65,536 leaves).
func measureFolds(pes int, m map[string]float64) {
	fold := func(leaves int, f func([]int64)) float64 {
		r := rand.New(rand.NewSource(int64(leaves)))
		src := make([]int64, leaves)
		for i := range src {
			src[i] = r.Int63n(1 << 15)
		}
		// The folds work in place; refill a batch of buffers between timed
		// batches so the copy stays out of the measurement.
		bufs := make([][]int64, 8)
		for i := range bufs {
			bufs[i] = make([]int64, leaves)
		}
		var total time.Duration
		folds := 0
		for total < minDur {
			for _, b := range bufs {
				copy(b, src)
			}
			t0 := time.Now()
			for _, b := range bufs {
				f(b)
			}
			total += time.Since(t0)
			folds += len(bufs)
		}
		return float64(total.Nanoseconds()) / float64(folds*leaves)
	}
	lo, hi := network.SatLimits(16)
	m["network.fold_ns_per_leaf.satadd"] = fold(pes, func(b []int64) { network.FoldInPlaceSatAdd(b, lo, hi) })
	m["network.fold_ns_per_leaf.max"] = fold(pes, func(b []int64) { network.FoldInPlaceMax(b) })
	m["network.fold_ns_per_leaf.or"] = fold(pes, func(b []int64) { network.FoldInPlaceOr(b) })
	m["network.fold_ns_per_leaf.or.p65536"] = fold(65536, func(b []int64) { network.FoldInPlaceOr(b) })
}

// wireCall is one deck entry as an HTTP exchange: path and JSON body.
func wireCall(d *deck, e *entry) (string, []byte, error) {
	var path string
	var body any
	switch e.kind {
	case callRun:
		path, body = "/v1/run", e.jobs[0].req
	case callBatch:
		path, body = "/v1/batch", e.batch()
	default:
		path, body = "/v1/sessions", client.SessionRequest{
			RunRequest: e.jobs[0].req, Resumable: true, CheckpointEveryCycles: d.checkpointEvery,
		}
	}
	data, err := json.Marshal(body)
	return path, data, err
}

// servedBy makes a gateway call and returns the index of the backend that
// served it: the one whose admitted-job counter moved across the call.
func servedBy(f *fleet, call func() error) (int, error) {
	admitted := func(i int) (float64, error) {
		c := counters{}
		err := f.scrapeInto(c, f.hss[i].URL)
		return c.sum("asc_requests_total"), err
	}
	before := make([]float64, len(f.hss))
	for i := range f.hss {
		n, err := admitted(i)
		if err != nil {
			return 0, err
		}
		before[i] = n
	}
	if err := call(); err != nil {
		return 0, err
	}
	for i := range f.hss {
		n, err := admitted(i)
		if err != nil {
			return 0, err
		}
		if n > before[i] {
			return i, nil
		}
	}
	return 0, fmt.Errorf("no backend admitted the gateway call")
}

// measureServing replays sample entries through the serving layers: the
// server handler in memory, the same server over loopback TCP, the gateway
// against a direct call to the backend it routed to, and the library
// replay of the simulation work the handler wraps.
func measureServing(ctx context.Context, lr *layerRun, sample []*entry, m map[string]float64) error {
	const reps = 5
	f := lr.f
	hc := &http.Client{Transport: f.tr}
	post := func(url string, body []byte) error {
		resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("POST %s: status %d", url, resp.StatusCode)
		}
		return nil
	}
	timed := func(name string, call int64, f func() error) (float64, error) {
		t0 := time.Now()
		err := f()
		t1 := time.Now()
		lr.rec.record(name, call, t0, t1, nil)
		return float64(t1.Sub(t0).Nanoseconds()) / 1e3, err
	}

	// Per entry: the fastest of reps interleaved calls on each path (on a
	// shared host the minimum is the least disturbed estimate); the metrics
	// are the medians over entries of those and of their per-entry
	// differences, so entries of different sizes never pair up.
	var inMem, loopback, overhead, hop []float64
	for i, e := range sample {
		call := int64(-1 - i)
		path, body, err := wireCall(lr.d, e)
		if err != nil {
			return err
		}
		// Warm every path (program cache, pool, blocks) before timing; the
		// warm-up gateway call also names the backend the direct calls use.
		owner := 0
		if f.gw != nil {
			if owner, err = servedBy(f, func() error { return post(f.gwHS.URL+path, body) }); err != nil {
				return err
			}
		}
		ownerURL, h := f.hss[owner].URL, f.servers[owner].Handler()
		serve := func() error {
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				return fmt.Errorf("in-memory %s: status %d: %s", path, w.Code, w.Body.String())
			}
			return nil
		}
		if err := serve(); err != nil {
			return err
		}
		var mem, tcp, viaGW, rep []float64
		for r := 0; r < reps; r++ {
			us, err := timed("server.inmemory", call, serve)
			if err != nil {
				return err
			}
			mem = append(mem, us)
			if us, err = timed("server.tcp", call, func() error { return post(ownerURL+path, body) }); err != nil {
				return err
			}
			tcp = append(tcp, us)
			if f.gw != nil {
				if us, err = timed("gateway.call", call, func() error { return post(f.gwHS.URL+path, body) }); err != nil {
					return err
				}
				viaGW = append(viaGW, us)
			}
			if us, err = replayWork(ctx, lr, e, call); err != nil {
				return err
			}
			rep = append(rep, us)
		}
		inMem = append(inMem, slices.Min(mem))
		loopback = append(loopback, slices.Min(tcp)-slices.Min(mem))
		overhead = append(overhead, slices.Min(mem)-slices.Min(rep))
		if f.gw != nil {
			hop = append(hop, slices.Min(viaGW)-slices.Min(tcp))
		}
	}
	m["server.call_us"] = median(inMem)
	m["server.loopback_us"] = median(loopback)
	m["server.overhead_us"] = median(overhead)
	if f.gw != nil {
		m["gateway.hop_us"] = median(hop)
		// Routing cost on a ring of the fleet's backends, keyed by the
		// sample's program digests (what the gateway's keys hash on).
		ring := gateway.NewRing(0)
		for _, hs := range f.hss {
			ring.Add(hs.URL)
		}
		var keys []string
		for _, e := range sample {
			r := &e.jobs[0].req
			keys = append(keys, progcache.RequestDigest(r.ASCL, r.Asm, r.Config.ASC()))
		}
		i := 0
		load := func(string) int64 { return 0 }
		m["gateway.route_ns"] = perOp(minDur, func() {
			gateway.PickBounded(ring.Preference(keys[i%len(keys)]), load, 1.25)
			i++
		})
	}
	return nil
}

// stepFunc runs one named step of a replay.
type stepFunc func(name string, f func() error) error

// replayWork re-executes an entry's simulation work through the library
// the way the server does — cached-program lookup, pool checkout, image
// load, run and dump read, check-in — on warm local caches, recording each
// step as a span. It returns the total in microseconds.
func replayWork(ctx context.Context, lr *layerRun, e *entry, call int64) (float64, error) {
	r := &e.jobs[0].req
	cfg := r.Config.ASC()
	key := progcache.RequestDigest(r.ASCL, r.Asm, cfg)
	if lr.replayCache == nil {
		lr.replayCache, lr.replayPool = progcache.New(128), pool.New(8)
	}
	if _, ok := lr.replayCache.Get(key); !ok {
		prog, err := compileReq(r)
		if err != nil {
			return 0, err
		}
		lr.replayCache.Put(key, progcache.Program{Prog: prog, Digest: key})
		// Warm the pool and the block plane outside the measurement.
		untimed := func(_ string, f func() error) error { return f() }
		if err := runOnce(ctx, lr.replayPool, e, prog, untimed); err != nil {
			return 0, err
		}
	}
	var kids []span
	step := func(name string, f func() error) error {
		t0 := time.Now()
		err := f()
		kids = append(kids, span{Name: name, Start: lr.rec.since(t0), End: lr.rec.since(time.Now())})
		return err
	}
	start := time.Now()
	var art progcache.Program
	err := step("progcache.lookup", func() error {
		a, ok := lr.replayCache.Get(progcache.RequestDigest(r.ASCL, r.Asm, cfg))
		if !ok {
			return fmt.Errorf("replay cache lost %s", progcache.ShortDigest(key))
		}
		art = a
		return nil
	})
	if err == nil {
		err = runOnce(ctx, lr.replayPool, e, art.Prog, step)
	}
	end := time.Now()
	lr.rec.record("replay", call, start, end, kids)
	return float64(end.Sub(start).Nanoseconds()) / 1e3, err
}

// runOnce runs an entry's jobs as the server would — solo for run and
// session calls, as one gang for a batch — in steps.
func runOnce(ctx context.Context, pl *pool.Pool, e *entry, prog *asc.Program, step stepFunc) error {
	cfg := e.jobs[0].req.Config.ASC()
	if e.kind == callBatch {
		var g *asc.Gang
		if err := step("pool.get", func() (err error) {
			g, _, err = pl.GetGang(cfg, prog, len(e.jobs))
			return err
		}); err != nil {
			return err
		}
		err := step("load", func() error {
			for lane, j := range e.jobs {
				if err := g.LoadLocalMem(lane, j.req.LocalMem); err != nil {
					return err
				}
				if err := g.LoadScalarMem(lane, j.req.ScalarMem); err != nil {
					return err
				}
			}
			return nil
		})
		if err == nil {
			err = step("run", func() error {
				for _, lane := range g.RunContext(ctx, 0) {
					if lane.Err != nil {
						return lane.Err
					}
				}
				return nil
			})
		}
		step("pool.put", func() error { pl.PutGang(g); return nil })
		return err
	}
	var p *asc.Processor
	if err := step("pool.get", func() (err error) {
		p, _, err = pl.Get(cfg, prog)
		return err
	}); err != nil {
		return err
	}
	err := step("load", func() error { return loadImages(p, &e.jobs[0].req) })
	if err == nil {
		err = step("run", func() error {
			if _, err := p.RunContext(ctx, 0); err != nil {
				return err
			}
			for w := 0; w < e.jobs[0].req.DumpScalar; w++ {
				_ = p.ScalarMem(w)
			}
			return nil
		})
	}
	step("pool.put", func() error { pl.Put(p); return nil })
	return err
}
