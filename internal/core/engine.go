// The cycle engine: one control-unit front end (fetch, classify, pick,
// issue), one scoreboard, and one set of sequential-unit reservations
// driving a set of lanes — architectural states that run the same program
// in lockstep. A Processor is the engine with one lane; a Gang is the
// engine with n. This is the paper's broadcast applied one level up: the
// control unit decodes and schedules each instruction once, and every lane
// executes it.
//
// Lockstep is sound exactly while the lanes' *control* behavior agrees: the
// front end's decisions depend only on the program (shared), the timing
// parameters (shared), thread PCs and liveness (identical while outcomes
// agree), and interthread-sync blocking (data-dependent). With more than
// one lane, divergence is detected at two points and resolved by forking
// the minority out of the lockstep set onto one-lane copies of the engine
// (see gang.go):
//
//   - pre-issue: a blocking micro-op (TSEND/TRECV/TJOIN) whose blocked
//     status differs between lanes — the lanes outside the larger agreeing
//     group fork with the op still pending and redo the cycle
//     (blockingStatus);
//   - post-execute: a machine.Outcome (branch direction, halt, exit, spawn)
//     that differs from the larger agreeing group's — those lanes executed
//     the op, and each fork follows its own outcome and closes the cycle
//     (settle, peelDivergent).
//
// A lane that traps leaves at once with solo semantics: the trapping
// instruction is popped and its stall recorded, but it is never counted.
// With one lane, both divergence checks are no-ops and a trap ends the run.
//
// Issue selection is event-driven (refreshReady): whether a thread can
// issue changes only when its head changes, when the cycle its head's
// timing thresholds clear arrives, or when shared state it reads moves, so
// a cycle re-classifies only the threads one of those events touched and
// picks from a ready bitmask. The events:
//
//   - dirty: the head view must be reloaded — the thread's head popped
//     (issue, dispatchOne, dispatchFused), Fetch refilled its empty
//     buffer, a sequential unit was reserved (every thread), or the thread
//     population or leader changed (spawn, exit, halt, setLive, Reset,
//     SetDecoded, Restore: every thread, via invalidate);
//   - due: the wake wheel's slot for this cycle holds the threads whose
//     head clears fetch eligibility, the scoreboard, and its sequential
//     unit this cycle (a wait longer than the wheel re-checks at its last
//     slot and re-arms);
//   - blocking heads (TSEND/TRECV/TJOIN): re-checked every cycle, since
//     another thread's send, receive, or exit readies or blocks them.
//
// Cycles the block plane advances without Step reload every thread. The
// blockers that attribute an idle cycle are derived from the cached head
// views on that cycle only.
//
// This file is in the hot-path lint set: the per-cycle path consumes
// precomputed micro-op fields only.
package core

import (
	"context"
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/cu"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/pipeline"
)

// engine is the lane-parametrized cycle-accurate front end shared by
// Processor and Gang.
type engine struct {
	cfg    Config
	params pipeline.Params
	front  *cu.CU
	sb     *pipeline.Scoreboard

	// lanes are the architectural states the front end drives. live holds
	// the indices of lanes still executing in lockstep and lead caches
	// lanes[live[0]] (nil once none is live): every front-end decision
	// reads the leader, and it changes only when the live set does. res[i]
	// is filled when lane i finishes (trap, run end, or its fork's end);
	// forks holds the lanes that diverged (gang.go). outBuf and
	// trapBuf are machine.ExecLanes' per-lane results, indexed like live
	// (when the lanes agree, only outBuf[0] is written); liveBuf is
	// scratch for the multi-lane paths. All are reused so Step
	// never allocates.
	lanes   []*machine.Machine
	live    []int
	lead    *machine.Machine
	res     []LaneResult
	liveBuf []int
	outBuf  []machine.Outcome
	trapBuf []error
	split   bool // outBuf disagrees: peelDivergent has lanes to fork
	forks   []fork

	runState
	trace []InstRecord
	views []headView // views[t] caches thread t's head (see runState)

	// blocks is the block-dispatch tier (block.go): nil when the tier is
	// off or the configuration excludes it; when on, it also runs fused
	// superinstructions.
	blocks *isa.BlockProgram

	// checkpointReq is set by RequestCheckpoint (any goroutine) and
	// consumed by run at the next cancel-check window boundary, stopping
	// the run at a quiescent point with ErrCheckpoint.
	checkpointReq atomic.Bool

	// structural is non-nil when Config.StructuralNetworks is set.
	structural *structState
}

// runState is the engine's timing state: the part a fork copies as it
// stands and restart zeroes.
type runState struct {
	cycle         int64
	lastIssue     int64
	maxCompletion int64
	halted        bool
	nextCheck     int64 // the run's next poll of ctx and the checkpoint flag

	// Sequential functional units become free at these cycles. The control
	// unit and the PE array have separate multiplier/divider resources.
	cuMulFree, cuDivFree int64
	peMulFree, peDivFree int64

	// stats is the shared lockstep accounting: the front end behaves for
	// every lane exactly as it would solo, so the numbers are per-job. The
	// per-hazard counters live in fixed arrays, so the hot path never
	// writes a map; finish builds Stats.IdleByKind and StallByKind.
	stats       Stats
	idleByKind  [pipeline.NumHazardKinds]int64
	stallByKind [pipeline.NumHazardKinds]int64

	// The ready set (refreshReady). Bit t of each mask is thread t;
	// machine.Config caps Threads at 64. The engine's views are exact for
	// every live thread once refreshReady has run; wheel[c%wheelSlots]
	// holds the threads to re-check at cycle c; classified is the cycle
	// the ready set will describe next, so any other cycle means the clock
	// moved outside Step.
	mActive    uint64 // threads the leader's machine holds active
	ready      uint64 // threads ready at the cycle last classified
	dirty      uint64 // threads whose head view must be reloaded
	blockHeads uint64 // threads whose head is a blocking micro-op
	wheel      [wheelSlots]uint64
	classified int64

	// Block-plane counters (block.go).
	blockDispatches int64
	blockFallbacks  [numFallbacks]int64
}

// blocker describes why a thread cannot issue at the current cycle.
type blocker struct {
	kind    pipeline.HazardKind
	readyAt int64 // estimated cycle the thread becomes ready; -1 = unknown
}

// headView caches the classification inputs of a thread's head micro-op:
// its fetch eligibility and its scoreboard bound and binding hazard. They
// stay exact until the head changes — the thread's own scoreboard entries
// change only when it issues, which pops the head.
type headView struct {
	d        *isa.Decoded // nil: the instruction buffer is empty
	eligible int64
	minIssue int64
	kind     pipeline.HazardKind
}

// wheelSlots is the wake wheel's span in cycles; a power of two, so a
// cycle's slot is a mask.
const wheelSlots = 64

// init builds the engine around the lanes newLanes allocates for the
// validated machine configuration.
func (e *engine) init(cfg Config, dp *isa.DecodedProgram, newLanes func(machine.Config) ([]*machine.Machine, error)) error {
	params, err := cfg.Params()
	if err != nil {
		return err
	}
	lanes, err := newLanes(cfg.Machine)
	if err != nil {
		return err
	}
	fetchWidth := 1
	if cfg.SMT {
		// Dual issue consumes up to two instructions per cycle; a
		// single-ported instruction fetch would starve the second port.
		fetchWidth = 2
	}
	front, err := cu.New(cu.Config{Threads: cfg.Machine.Threads, FetchWidth: fetchWidth}, dp)
	if err != nil {
		return err
	}
	e.cfg, e.params, e.lanes, e.front = cfg, params, lanes, front
	e.sb = pipeline.NewScoreboard(params, cfg.Machine.Threads)
	e.live = make([]int, 0, len(lanes))
	e.liveBuf = make([]int, 0, len(lanes))
	e.outBuf = make([]machine.Outcome, len(lanes))
	e.trapBuf = make([]error, len(lanes))
	e.res = make([]LaneResult, len(lanes))
	e.views = make([]headView, cfg.Machine.Threads)
	if cfg.Blocks != BlocksOff && !cfg.SMT && !cfg.StructuralNetworks && cfg.TraceDepth == 0 {
		e.blocks = dp.Blocks()
	}
	e.restart()
	return nil
}

// restart returns the engine's own state to power-on with every lane live;
// the lanes, front end, and scoreboard are the caller's.
func (e *engine) restart() {
	e.runState = runState{stats: Stats{PerThread: make([]int64, e.cfg.Machine.Threads)}}
	e.trace, e.forks = nil, nil
	e.checkpointReq.Store(false)
	if e.cfg.StructuralNetworks {
		e.structural = newStructState(e.cfg.Machine.PEs, e.cfg.Arity, e.cfg.Machine.Width)
	}
	e.reviveLanes()
}

// reviveLanes makes every lane live again and clears their results.
func (e *engine) reviveLanes() {
	e.live = e.live[:0]
	for i := range e.lanes {
		e.live = append(e.live, i)
	}
	e.lead = e.lanes[0]
	clear(e.res)
	e.invalidate()
}

// setLive installs keep (built in liveBuf) as the live set and refreshes
// the cached leader.
func (e *engine) setLive(keep []int) {
	e.live, e.liveBuf = keep, e.live
	e.lead = nil
	if len(e.live) > 0 {
		e.lead = e.lanes[e.live[0]]
	}
	e.invalidate()
}

// invalidate re-reads the leader's active threads and marks every thread
// dirty: the thread population, the leader, or state every thread's
// classification reads has changed.
func (e *engine) invalidate() {
	e.mActive = 0
	if e.lead != nil {
		for tid := 0; tid < e.cfg.Machine.Threads; tid++ {
			if e.lead.ThreadActive(tid) {
				e.mActive |= 1 << tid
			}
		}
	}
	e.dirty = ^uint64(0)
}

// Params returns the derived timing parameters (b, r, unit latencies).
func (e *engine) Params() pipeline.Params { return e.params }

// Cycle returns the current simulation cycle.
func (e *engine) Cycle() int64 { return e.cycle }

// Reset returns the engine to power-on state — every lane's architectural
// state, front end, scoreboard, sequential-unit reservations, statistics,
// and trace — without reallocating the flat register/flag/memory files.
// A reset engine behaves
// identically to a freshly constructed one; the serving pool relies on
// this to reuse warm machines and gangs across requests.
func (e *engine) Reset() {
	machine.ResetLanes(e.lanes)
	e.front.Reset(e.lanes[0].Decoded())
	for tid := 0; tid < e.cfg.Machine.Threads; tid++ {
		e.sb.ClearThread(tid)
	}
	e.restart()
}

// SetDecoded retargets every lane at an already-decoded program and
// Resets, clearing each lane's state once.
func (e *engine) SetDecoded(dp *isa.DecodedProgram) {
	for _, m := range e.lanes {
		m.SetDecoded(dp)
	}
	if e.blocks != nil {
		e.blocks = dp.Blocks()
	}
	e.Reset()
}

// liveThreads returns the threads active in both the leader's machine and the
// front end: the only threads that can be ready or name a blocker.
func (e *engine) liveThreads() uint64 { return e.mActive & e.front.ActiveMask() }

// headOf reads thread tid's current head into a view.
func (e *engine) headOf(tid int) headView {
	head, ok := e.front.Head(tid)
	if !ok {
		return headView{}
	}
	if pc := e.lead.PC(tid); head.PC != pc {
		panic(fmt.Sprintf("core: thread %d buffer head pc %d != architectural pc %d", tid, head.PC, pc))
	}
	minIssue, kind := e.sb.MinIssue(tid, head.D)
	return headView{d: head.D, eligible: head.EligibleAt(), minIssue: minIssue, kind: kind}
}

// issueAt returns the first cycle the head micro-op v.d may issue by its
// timing thresholds: fetch eligibility, the scoreboard, and any
// sequential unit it needs. A blocking micro-op may still be blocked then.
func (e *engine) issueAt(v *headView) int64 {
	return max(v.eligible, v.minIssue, e.unitFreeAt(v.d))
}

// canIssue reports whether the live thread tid, whose head is v, can issue
// at the current cycle.
func (e *engine) canIssue(tid int, v *headView) bool {
	return v.d != nil && e.issueAt(v) <= e.cycle && !(v.d.Info.Blocking && e.blockingStatus(tid, v.d))
}

// blockerOf names the binding obstacle of a live thread, whose head is v,
// that is not ready at the current cycle. The checks run in the order the
// head meets them; a head past every threshold is blocked on interthread
// synchronization.
func (e *engine) blockerOf(v *headView) blocker {
	switch {
	case v.d == nil:
		// Buffer empty: either a redirect is resolving or fetch bandwidth
		// has not reached this thread yet.
		return blocker{kind: pipeline.HazardFetch, readyAt: -1}
	case v.eligible > e.cycle:
		return blocker{kind: pipeline.HazardFetch, readyAt: v.eligible}
	case v.minIssue > e.cycle:
		return blocker{kind: v.kind, readyAt: v.minIssue}
	}
	if free := e.unitFreeAt(v.d); free > e.cycle {
		return blocker{kind: pipeline.HazardStructural, readyAt: free}
	}
	return blocker{kind: pipeline.HazardSync, readyAt: -1}
}

// refreshReady brings the ready set up to the current cycle,
// re-classifying only the threads that are dirty, due on the wake wheel,
// or waiting at a blocking head (see the file comment). Threads are
// classified in ascending order, as blockingStatus's peels require.
func (e *engine) refreshReady() {
	c := e.cycle
	if c != e.classified {
		e.dirty = ^uint64(0) // the block plane moved the clock
	}
	e.classified = c + 1
	live := e.liveThreads()
	slot := &e.wheel[c&(wheelSlots-1)]
	reload := e.dirty & live
	work := reload | (*slot|e.blockHeads)&live
	*slot, e.dirty = 0, 0
	e.ready &= live
	for w := work; w != 0; w &= w - 1 {
		tid := bits.TrailingZeros64(w)
		bit := uint64(1) << tid
		v := &e.views[tid]
		if reload&bit != 0 {
			*v = e.headOf(tid)
			e.blockHeads &^= bit
			if v.d != nil && v.d.Info.Blocking {
				e.blockHeads |= bit
			}
		}
		if e.canIssue(tid, v) {
			e.ready |= bit
			continue
		}
		e.ready &^= bit
		if v.d == nil {
			continue // Fetch's refill wakes it
		}
		if at := e.issueAt(v); at > c {
			e.wheel[min(at, c+wheelSlots-1)&(wheelSlots-1)] |= bit
		}
	}
}

// blockingStatus evaluates a blocking micro-op's blocked state. Mailbox
// state is data-dependent (a TSEND target register can differ between
// lanes without any prior Outcome divergence), so lanes whose blocked
// status disagrees would break lockstep on the very next issue decision.
// The larger agreeing group stays (a tie keeps the leader's group) and the
// rest fork here, before the op executes; each fork redoes this cycle.
func (e *engine) blockingStatus(tid int, d *isa.Decoded) bool {
	blocked := e.lead.BlockedDecoded(tid, d)
	if len(e.live) == 1 {
		return blocked
	}
	agree := 0
	for _, li := range e.live {
		if e.lanes[li].BlockedDecoded(tid, d) == blocked {
			agree++
		}
	}
	if agree == len(e.live) {
		return blocked
	}
	if 2*agree < len(e.live) {
		blocked = !blocked
	}
	keep := e.liveBuf[:0]
	for _, li := range e.live {
		if e.lanes[li].BlockedDecoded(tid, d) == blocked {
			keep = append(keep, li)
		} else {
			e.fork(li, true)
		}
	}
	e.setLive(keep)
	return blocked
}

// unitFreeAt returns the cycle at which any sequential unit the micro-op
// needs becomes free (or 0 if it needs none / the unit is pipelined).
func (e *engine) unitFreeAt(d *isa.Decoded) int64 {
	info := d.Info
	switch {
	case info.IsDiv && d.Class == isa.ClassScalar:
		return e.cuDivFree
	case info.IsDiv:
		return e.peDivFree
	case info.IsMul && e.params.SeqMul && d.Class == isa.ClassScalar:
		return e.cuMulFree
	case info.IsMul && e.params.SeqMul:
		return e.peMulFree
	}
	return 0
}

// reserveUnit marks a sequential unit busy after an issue at cycle t. Any
// thread's head may wait on the unit, so every thread goes dirty.
func (e *engine) reserveUnit(d *isa.Decoded, t int64) {
	info := d.Info
	if info.IsDiv || info.IsMul && e.params.SeqMul {
		e.dirty = ^uint64(0)
	}
	switch {
	case info.IsDiv && d.Class == isa.ClassScalar:
		e.cuDivFree = t + int64(e.params.DivLatency)
	case info.IsDiv:
		e.peDivFree = t + int64(e.params.DivLatency)
	case info.IsMul && e.params.SeqMul && d.Class == isa.ClassScalar:
		e.cuMulFree = t + int64(e.params.MulLatency)
	case info.IsMul && e.params.SeqMul:
		e.peMulFree = t + int64(e.params.MulLatency)
	}
}

// Step simulates one clock cycle. It returns false once every lane has
// left, or the live lanes have halted and the pipeline has drained. The
// error is a deadlock, a structural co-simulation mismatch, or the trap
// that ended the last live lane.
func (e *engine) Step() (bool, error) {
	if e.done() {
		return false, nil
	}

	// Structural co-simulation: advance the network bank first, so an
	// operation pushed at issue cycle t takes its first pipeline step at
	// t+1 (entering B1) and emerges at t+b+r+1, the end of its last
	// reduction stage.
	if e.structural != nil {
		if err := e.stepStructural(); err != nil {
			return false, err
		}
	}

	// Issue phase: bring the ready set up to date, pick one ready thread.
	e.refreshReady()
	ready, issued := e.ready, 0
	var picked int
	if e.cfg.Scheduler == SchedFixed {
		picked = e.front.PickFixed(ready)
	} else {
		picked = e.front.PickRotating(ready)
	}
	if picked >= 0 {
		firstClass := e.views[picked].d.Class
		if err := e.issue(picked); err != nil {
			return false, err
		}
		issued = 1
		if e.cfg.SMT {
			// Second issue slot: a thread whose next instruction uses the
			// other datapath. Statuses are re-evaluated because the first
			// issue changed machine and scoreboard state.
			if second := e.pickSecond(picked, firstClass); second >= 0 {
				if err := e.issue(second); err != nil {
					return false, err
				}
				issued++
			}
		}
	} else if e.mActive != 0 {
		e.stats.IdleCycles++
		// Attribute the lost issue slot to the thread closest to ready;
		// threads not live name no blocker.
		best := blocker{kind: pipeline.HazardNone, readyAt: -1}
		for live := e.liveThreads(); live != 0; live &= live - 1 {
			w := e.blockerOf(&e.views[bits.TrailingZeros64(live)])
			if w.kind == pipeline.HazardNone {
				continue
			}
			if best.kind == pipeline.HazardNone ||
				(w.readyAt >= 0 && (best.readyAt < 0 || w.readyAt < best.readyAt)) {
				best = w
			}
		}
		if best.kind != pipeline.HazardNone {
			e.idleByKind[best.kind]++
		}
		if e.cycle-e.lastIssue > deadlockWindow {
			return false, fmt.Errorf("core: no instruction issued for %d cycles (deadlock at cycle %d)", deadlockWindow, e.cycle)
		}
	}

	e.tick(bits.OnesCount64(ready) - issued)
	return !e.done(), nil
}

// tick closes a cycle: contention (ready threads not issued) is counted,
// then the fetch phase runs (same cycle, after issue, so a decode-stage
// redirect can refetch immediately; a refilled buffer has a new head) and
// the clock advances. It is small enough to inline into Step.
func (e *engine) tick(contention int) {
	e.stats.Contention += int64(max(contention, 0))
	e.dirty |= e.front.Fetch(e.cycle)
	e.cycle++
}

// pickSecond selects a thread for the SMT second issue slot: different
// thread, opposite datapath, not a thread-management or halt instruction
// (the thread status table is single-ported), and ready right now — each
// candidate is classified afresh, since the first issue changed machine
// and scoreboard state. SMT runs one lane, so canIssue has no side effects.
func (e *engine) pickSecond(first int, firstClass isa.Class) int {
	if e.halted {
		return -1
	}
	var cand uint64
	for w := e.liveThreads() &^ (1 << first); w != 0; w &= w - 1 {
		tid := bits.TrailingZeros64(w)
		v := e.headOf(tid)
		if v.d == nil || v.d.Info.IsThread || v.d.Info.IsHalt {
			continue
		}
		// The scalar datapath and the broadcast network are the two ports.
		if (v.d.Class == isa.ClassScalar) == (firstClass == isa.ClassScalar) {
			continue
		}
		if e.canIssue(tid, &v) {
			cand |= 1 << tid
		}
	}
	if e.cfg.Scheduler == SchedFixed {
		return e.front.PickFixed(cand)
	}
	return e.front.PickRotating(cand)
}

// done reports whether the run is over: no lane is live, or the live lanes
// halted (HALT, or every thread exited) and the pipeline drained.
func (e *engine) done() bool {
	if len(e.live) == 0 {
		return true
	}
	if !e.halted && e.mActive != 0 {
		return false
	}
	// Drain: run the clock to the last write-back.
	return e.cycle >= e.maxCompletion
}

// popHead removes tid's head micro-op, leaving the thread dirty.
func (e *engine) popHead(tid int) cu.Fetched {
	e.dirty |= 1 << tid
	return e.front.PopHead(tid)
}

// issue pops and executes the head micro-op of the ready thread tid on
// every live lane. Its scoreboard bound comes from the head view
// refreshReady left exact: only tid's own issue moves its scoreboard.
func (e *engine) issue(tid int) error {
	kind := e.views[tid].kind
	minIssue := e.views[tid].minIssue
	head := e.popHead(tid)
	d := head.D
	e.accountStall(head.EligibleAt(), e.cycle, minIssue, kind, e.unitFreeAt(d))

	if e.structural != nil && d.Class == isa.ClassReduction {
		e.pushReduction(tid, d)
	}
	out, err := e.exec(tid, d)
	if err != nil {
		return err
	}
	e.record(tid, d, e.cycle)
	e.peelDivergent(tid, d, out)

	if e.cfg.TraceDepth != 0 {
		rec := InstRecord{
			Issue: e.cycle, FetchCycle: head.FetchCycle, Thread: tid,
			PC: head.PC, Inst: d.Inst, Stall: e.cycle - head.EligibleAt(), StallKind: kind,
		}
		if rec.Stall <= 0 {
			rec.StallKind = pipeline.HazardNone
		}
		e.trace = append(e.trace, rec)
		if e.cfg.TraceDepth > 0 && len(e.trace) > e.cfg.TraceDepth {
			e.trace = e.trace[1:]
		}
	}
	if out.Redirect || out.Halt || out.Exited || out.Spawned >= 0 {
		e.follow(tid, d, out) // most micro-ops fall through: nothing to follow
	}
	return nil
}

// follow applies the control flow of outcome out, of micro-op d issued by
// thread tid, to the front end: the outcome every live lane produced.
func (e *engine) follow(tid int, d *isa.Decoded, out machine.Outcome) {
	switch {
	case out.Halt:
		e.halted = true
		for t := 0; t < e.cfg.Machine.Threads; t++ {
			e.front.StopThread(t)
		}
		e.invalidate()
	case out.Exited:
		e.front.StopThread(tid)
		e.invalidate()
	case out.Redirect:
		resume := e.cycle + int64(e.params.ExecRedirect) - 1
		if d.Kind == isa.ExecJump && d.Jump != isa.JumpReg {
			// J/JAL: target known at decode, cheap redirect.
			resume = e.cycle + int64(e.params.DecodeRedirect) - 1
		}
		e.front.Redirect(tid, out.NextPC, resume)
	}
	if out.Spawned >= 0 {
		e.sb.ClearThread(out.Spawned)
		e.front.StartThread(out.Spawned, e.lead.PC(out.Spawned), e.cycle+int64(e.params.SpawnStart)-1)
		e.invalidate()
	}
}

// accountStall attributes the cycles an op issued at issueC waited beyond
// its front-end minimum (eligible) to the binding hazard at decode time: the
// scoreboard's kind when a register hazard bound, else a busy sequential
// unit (free); contention and sync waits are not attributed.
func (e *engine) accountStall(eligible, issueC, minIssue int64, kind pipeline.HazardKind, free int64) {
	stall := issueC - eligible
	if stall <= 0 {
		return
	}
	if minIssue <= eligible {
		if free <= eligible {
			return
		}
		kind = pipeline.HazardStructural
	}
	if kind != pipeline.HazardNone {
		e.stallByKind[kind] += stall
	}
}

// exec runs micro-op d of thread tid on every live lane in one
// machine.ExecLanes call and returns the outcome the front end follows.
// Lanes in lockstep need no more; a trap or a divergence goes through
// settle.
func (e *engine) exec(tid int, d *isa.Decoded) (machine.Outcome, error) {
	n := len(e.live)
	outs, traps := e.outBuf[:n], e.trapBuf[:n]
	if machine.ExecLanes(e.lanes, e.live, tid, d, outs, traps) {
		return outs[0], nil
	}
	return e.settle(outs, traps)
}

// settle resolves the lanes' results of one micro-op. A lane that trapped
// is finalized at once, before the shared accounting, so its statistics
// exclude the op — exactly what a solo run records. When no lane survives,
// the first trap is returned. With several survivors the reference outcome
// is the larger agreeing group's (a tie keeps the group holding the
// earliest lane); when they disagree, outBuf keeps every survivor's
// outcome, aligned with the new live set, for peelDivergent.
func (e *engine) settle(outs []machine.Outcome, traps []error) (machine.Outcome, error) {
	keep := e.liveBuf[:0]
	var trap error
	split := false
	n := 0
	for k, li := range e.live {
		if err := traps[k]; err != nil {
			e.finalize(li, err)
			if trap == nil {
				trap = err
			}
			continue
		}
		split = split || (n > 0 && outs[k] != outs[0])
		outs[n] = outs[k]
		n++
		keep = append(keep, li)
	}
	out := outs[:n]
	if trap != nil {
		e.setLive(keep)
		if n == 0 {
			return machine.Outcome{}, trap
		}
	}
	e.split = split
	if !split {
		return out[0], nil
	}
	// Plurality, only on divergence: a strictly larger count wins, so a
	// tie keeps the group seen first.
	ref, refN := out[0], 0
	for _, o := range out {
		n := 0
		for _, p := range out {
			if p == o {
				n++
			}
		}
		if n > refN {
			ref, refN = o, n
		}
	}
	return ref, nil
}

// peelDivergent forks the live lanes whose outcome of micro-op d, just
// recorded for thread tid, differs from ref: they executed it, so their
// statistics include it.
func (e *engine) peelDivergent(tid int, d *isa.Decoded, ref machine.Outcome) {
	if e.split {
		e.split = false
		e.peelLanes(tid, d, ref)
	}
}

// peelLanes is peelDivergent's slow path, taken only when outcomes differ.
// Each fork follows its own outcome and closes the cycle as Step would.
func (e *engine) peelLanes(tid int, d *isa.Decoded, ref machine.Outcome) {
	keep := e.liveBuf[:0]
	for k, li := range e.live {
		if out := e.outBuf[k]; out != ref {
			f := e.fork(li, false)
			f.follow(tid, d, out)
			f.tick(bits.OnesCount64(e.ready) - 1)
		} else {
			keep = append(keep, li)
		}
	}
	e.setLive(keep)
}

// record accounts micro-op d of thread tid issued at cycle c: last issue,
// scoreboard, sequential-unit reservation, drain horizon, and instruction
// counts.
func (e *engine) record(tid int, d *isa.Decoded, c int64) {
	e.lastIssue = c
	e.sb.Record(tid, d, c)
	e.reserveUnit(d, c)
	if ct := e.params.CompletionTime(d, c); ct > e.maxCompletion {
		e.maxCompletion = ct
	}
	e.stats.Instructions++
	e.stats.PerThread[tid]++
	switch d.Class {
	case isa.ClassScalar:
		e.stats.Scalar++
	case isa.ClassParallel:
		e.stats.Parallel++
	case isa.ClassReduction:
		e.stats.Reduction++
	}
}

// run simulates until the live lanes halt and drain, or until maxCycles
// elapse (0 = no limit). Every cancelCheckWindow cycles it polls ctx and
// the checkpoint request flag. It returns the error that ended the run —
// nil for a clean halt — and always stops at a quiescent point (between
// cycles), so the engine can be Reset, snapshotted, or resumed afterwards.
func (e *engine) run(ctx context.Context, maxCycles int64) error {
	e.nextCheck = e.cycle + cancelCheckWindow
	return e.resume(ctx, maxCycles, false)
}

// resume is run from the standing poll boundary. With redo, the first
// cycle skips the block plane: a fork made before issue redoes a cycle
// whose block-plane attempt the gang already made and counted.
func (e *engine) resume(ctx context.Context, maxCycles int64, redo bool) error {
	done := ctx.Done()
	for ; ; redo = false {
		if maxCycles > 0 && e.cycle >= maxCycles {
			return fmt.Errorf("core: %w (limit %d)", ErrCycleLimit, maxCycles)
		}
		if e.cycle >= e.nextCheck {
			if e.checkpointReq.CompareAndSwap(true, false) {
				return fmt.Errorf("core: %w (cycle %d)", ErrCheckpoint, e.cycle)
			}
			if done != nil {
				select {
				case <-done:
					return fmt.Errorf("core: run stopped at cycle %d: %w", e.cycle, ctx.Err())
				default:
				}
			}
			e.nextCheck = e.cycle + cancelCheckWindow
		}
		if e.blocks != nil && !redo {
			// Block-dispatch tier: cover as much of the window as the
			// closed form allows, then fall back to the per-cycle path.
			stopAt := e.nextCheck
			if maxCycles > 0 && maxCycles < stopAt {
				stopAt = maxCycles
			}
			ran, err := e.runBlock(stopAt)
			if err != nil {
				return err
			}
			if ran {
				continue
			}
		}
		more, err := e.Step()
		if err != nil {
			return err
		}
		if !more {
			return e.structuralDrained()
		}
	}
}

// finish returns the shared statistics with the drain rule applied. The
// per-thread slice aliases the engine's (laneStats copies it); the
// per-hazard maps are built fresh and hold the nonzero kinds only.
func (e *engine) finish() Stats {
	s := e.stats
	s.IdleByKind = kindCounts(&e.idleByKind)
	s.StallByKind = kindCounts(&e.stallByKind)
	s.Cycles = e.cycle
	if e.maxCompletion+1 > s.Cycles {
		s.Cycles = e.maxCompletion + 1
	}
	s.Fetches = e.front.Fetches
	s.Flushes = e.front.Flushes
	s.BlockDispatches = e.blockDispatches
	for i, v := range e.blockFallbacks {
		if v == 0 {
			continue
		}
		if s.BlockFallbacks == nil {
			s.BlockFallbacks = make(map[string]int64, numFallbacks)
		}
		s.BlockFallbacks[fallbackReasons[i]] = v
	}
	return s
}

// kindCounts is the map form of a per-hazard counter array: one entry per
// nonzero kind.
func kindCounts(c *[pipeline.NumHazardKinds]int64) map[pipeline.HazardKind]int64 {
	m := make(map[pipeline.HazardKind]int64)
	for k, v := range c {
		if v != 0 {
			m[pipeline.HazardKind(k)] = v
		}
	}
	return m
}
