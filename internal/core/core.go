// Package core is the cycle-accurate simulator of the Multithreaded
// Associative SIMD (MTASC) processor — the paper's primary contribution.
// It combines the functional machine (internal/machine), the control-unit
// front end (internal/cu), the split-pipeline timing model and scoreboard
// (internal/pipeline), and the pipelined broadcast/reduction network
// latencies (internal/network).
//
// Each simulated cycle: the scheduler picks one ready hardware thread by
// rotating priority and issues its next instruction into the split pipeline;
// the fetch unit fetches one instruction into a thread's buffer. A thread is
// ready when its next instruction is fetched and decoded, all register
// dependences are satisfiable by forwarding (scoreboard), any sequential
// functional unit it needs is free, and it is not blocked on interthread
// synchronization. Stall and idle cycles are attributed to the paper's
// hazard classes (broadcast, reduction, broadcast-reduction) plus data,
// structural, control, sync, and fetch causes.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/cu"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/network"
	"repro/internal/pipeline"
)

// SchedulerPolicy selects the issue-arbitration policy.
type SchedulerPolicy uint8

const (
	// SchedRotating is the paper's rotating-priority policy (fair).
	SchedRotating SchedulerPolicy = iota
	// SchedFixed always prefers the lowest-numbered ready thread
	// (ablation baseline; starves high-numbered threads).
	SchedFixed
)

// Config configures a simulated processor.
type Config struct {
	Machine machine.Config

	// Arity is the broadcast tree arity k (default 4).
	Arity int

	// Front end.
	BufferDepth int
	FetchWidth  int

	// Functional units.
	SeqMul     bool // sequential multiplier instead of pipelined hard blocks
	MulLatency int  // 0 = default (2 pipelined; data width if sequential)

	Scheduler SchedulerPolicy

	// SMT enables dual issue: one scalar-path instruction and one
	// parallel/reduction-path instruction may issue in the same cycle,
	// from two different hardware threads. The paper (section 5) discusses
	// SMT as the costlier alternative to fine-grain multithreading; the
	// split pipeline of Figure 1 has exactly two independent issue ports
	// (the scalar datapath and the broadcast network), which is what this
	// models. Thread-management instructions only use the primary port.
	SMT bool

	// StructuralNetworks runs every reduction through the structural
	// pipelined network models (internal/network.Bank) in lockstep with
	// the instruction-level simulation, verifying value and latency of
	// each result. Slower; intended for validation runs and tests.
	StructuralNetworks bool

	// TraceDepth keeps the most recent N issued-instruction records for
	// pipeline diagrams; 0 disables tracing, -1 keeps everything.
	TraceDepth int

	// Blocks selects the block-dispatch tier (see block.go): BlocksAuto
	// engages it whenever the configuration allows (no SMT, no structural
	// co-simulation, no tracing) and exactly one thread is active;
	// BlocksOff forces the per-cycle path. Architecturally invisible
	// either way — cycle accounting is bit-identical.
	Blocks BlocksMode

	// DeadlockWindow aborts the run if no instruction issues for this many
	// consecutive cycles while threads remain (0 = default 100000).
	DeadlockWindow int64
}

// Params validates the configuration, filling defaults in place, and
// returns the derived pipeline timing parameters.
func (c *Config) Params() (pipeline.Params, error) {
	if err := c.Machine.Validate(); err != nil {
		return pipeline.Params{}, err
	}
	mc := c.Machine
	if c.Arity == 0 {
		c.Arity = 4
	}
	if c.Arity < 2 || c.Arity > 64 {
		return pipeline.Params{}, fmt.Errorf("core: Arity must be in [2, 64], got %d", c.Arity)
	}
	p := pipeline.DefaultParams(mc.PEs, c.Arity, mc.Width)
	if c.SeqMul {
		p.SeqMul = true
		p.MulLatency = int(mc.Width)
	}
	if c.MulLatency > 0 {
		p.MulLatency = c.MulLatency
	}
	return p, p.Validate()
}

// InstRecord is one issued instruction, for tracing and pipeline diagrams.
type InstRecord struct {
	Issue      int64
	FetchCycle int64
	Thread     int
	PC         int
	Inst       isa.Inst
	Stall      int64 // cycles waited beyond the front-end minimum
	StallKind  pipeline.HazardKind
}

// Stats aggregates a simulation run.
type Stats struct {
	// Cycles is the total run length including pipeline drain: the cycle
	// after the last in-flight instruction completed write-back.
	Cycles int64
	// Instructions issued, total and by pipeline class.
	Instructions int64
	Scalar       int64
	Parallel     int64
	Reduction    int64
	// PerThread[t] is the number of instructions issued by thread t.
	PerThread []int64
	// IdleCycles is the number of issue slots in which no thread was ready
	// (the broadcast/reduction bottleneck made visible); IdleByKind
	// attributes each idle cycle to the cause of the thread that was
	// closest to becoming ready.
	IdleCycles int64
	IdleByKind map[pipeline.HazardKind]int64
	// StallByKind sums, over issued instructions, the cycles each waited
	// beyond its front-end minimum, attributed to the binding hazard.
	StallByKind map[pipeline.HazardKind]int64
	// Contention counts ready-but-not-selected thread-cycles (more than
	// one thread ready for the single issue slot).
	Contention int64
	// Front-end counters.
	Fetches int64
	Flushes int64
	// BlockDispatches counts block-plane entries (each covering one or
	// more issued micro-ops); BlockFallbacks counts per-reason declines
	// back to the per-cycle path (nil when none occurred or the block
	// plane is off). See block.go.
	BlockDispatches int64
	BlockFallbacks  map[string]int64
}

// IPC is issued instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// Utilization is the fraction of cycles that issued an instruction.
func (s Stats) Utilization() float64 { return s.IPC() }

// Processor is a configured simulation instance.
type Processor struct {
	cfg    Config
	params pipeline.Params
	mach   *machine.Machine
	front  *cu.CU
	sb     *pipeline.Scoreboard

	cycle         int64
	lastIssue     int64
	maxCompletion int64
	halted        bool

	// Sequential functional units become free at these cycles. The control
	// unit and the PE array have separate multiplier/divider resources.
	cuMulFree, cuDivFree int64
	peMulFree, peDivFree int64

	stats Stats
	trace []InstRecord

	// Block-dispatch tier (block.go). blocks is nil when the tier is off
	// or the configuration excludes it; blockFuse additionally allows
	// fused superinstruction kernels (serial engine only — the sharded
	// engine executes constituents individually, which the fallback
	// single-step path already covers).
	blocks          *isa.BlockProgram
	blockFuse       bool
	blockDispatches int64
	blockFallbacks  [numFallbacks]int64

	// checkpointReq is set by RequestCheckpoint (any goroutine) and
	// consumed by RunContext at the next cancel-check window boundary,
	// stopping the run at a quiescent point with ErrCheckpoint.
	checkpointReq atomic.Bool

	// statusBuf is reused each cycle by Step to avoid per-cycle allocation.
	statusBuf []threadState

	// structural is non-nil when Config.StructuralNetworks is set.
	structural *structState
}

// threadState is the per-cycle readiness classification of one thread.
type threadState struct {
	ready bool
	why   blocker
}

// New builds a processor for a program, decoding and validating it up
// front (errors wrap isa.ErrInvalidProgram for bad programs).
func New(cfg Config, prog []isa.Inst) (*Processor, error) {
	dp, err := isa.DecodeProgram(prog)
	if err != nil {
		return nil, err
	}
	return NewDecoded(cfg, dp)
}

// NewDecoded builds a processor around an already-decoded program,
// sharing the immutable decoded form with other consumers (the serving
// stack's program cache decodes once per distinct program).
func NewDecoded(cfg Config, dp *isa.DecodedProgram) (*Processor, error) {
	params, err := cfg.Params()
	if err != nil {
		return nil, err
	}
	mach, err := machine.NewDecoded(cfg.Machine, dp)
	if err != nil {
		return nil, err
	}
	if cfg.SMT && cfg.FetchWidth == 0 {
		// Dual issue consumes up to two instructions per cycle; a
		// single-ported instruction fetch would starve the second port.
		cfg.FetchWidth = 2
	}
	front, err := cu.New(cu.Config{
		Threads:     cfg.Machine.Threads,
		BufferDepth: cfg.BufferDepth,
		FetchWidth:  cfg.FetchWidth,
	}, dp)
	if err != nil {
		return nil, err
	}
	if cfg.DeadlockWindow == 0 {
		cfg.DeadlockWindow = 100000
	}
	p := &Processor{
		cfg:    cfg,
		params: params,
		mach:   mach,
		front:  front,
		sb:     pipeline.NewScoreboard(params, cfg.Machine.Threads),
	}
	p.stats.PerThread = make([]int64, cfg.Machine.Threads)
	p.stats.IdleByKind = make(map[pipeline.HazardKind]int64)
	p.stats.StallByKind = make(map[pipeline.HazardKind]int64)
	p.statusBuf = make([]threadState, cfg.Machine.Threads)
	if cfg.StructuralNetworks {
		p.structural = newStructState(cfg.Machine.PEs, cfg.Arity, cfg.Machine.Width)
	}
	if cfg.Blocks != BlocksOff && !cfg.SMT && !cfg.StructuralNetworks && cfg.TraceDepth == 0 {
		p.blocks = dp.Blocks()
		p.blockFuse = !mach.EngineParallelActive()
	}
	return p, nil
}

// Machine exposes the architectural state (for loading data and reading
// results).
func (p *Processor) Machine() *machine.Machine { return p.mach }

// Params returns the derived timing parameters (b, r, unit latencies).
func (p *Processor) Params() pipeline.Params { return p.params }

// Cycle returns the current simulation cycle.
func (p *Processor) Cycle() int64 { return p.cycle }

// Trace returns the recorded instruction trace (nil if TraceDepth is 0).
func (p *Processor) Trace() []InstRecord { return p.trace }

// FrontEnd exposes the control-unit front end (for introspection tools).
func (p *Processor) FrontEnd() *cu.CU { return p.front }

// blocker describes why a thread cannot issue at the current cycle.
type blocker struct {
	kind    pipeline.HazardKind
	readyAt int64 // estimated cycle the thread becomes ready; -1 = unknown
}

// threadStatus classifies thread tid at the current cycle. ready=true means
// it can issue now; otherwise why describes the binding obstacle.
func (p *Processor) threadStatus(tid int) (ready bool, why blocker) {
	if !p.mach.ThreadActive(tid) || !p.front.Active(tid) {
		return false, blocker{kind: pipeline.HazardNone, readyAt: -1}
	}
	head, ok := p.front.Head(tid)
	if !ok {
		// Buffer empty: either a redirect is resolving or fetch bandwidth
		// has not reached this thread yet.
		return false, blocker{kind: pipeline.HazardFetch, readyAt: -1}
	}
	if head.PC != p.mach.PC(tid) {
		panic(fmt.Sprintf("core: thread %d buffer head pc %d != architectural pc %d", tid, head.PC, p.mach.PC(tid)))
	}
	if e := head.EligibleAt(); e > p.cycle {
		return false, blocker{kind: pipeline.HazardFetch, readyAt: e}
	}
	if min, kind := p.sb.MinIssue(tid, head.D); min > p.cycle {
		return false, blocker{kind: kind, readyAt: min}
	}
	if free := p.unitFreeAt(head.D); free > p.cycle {
		return false, blocker{kind: pipeline.HazardStructural, readyAt: free}
	}
	if p.mach.BlockedDecoded(tid, head.D) {
		return false, blocker{kind: pipeline.HazardSync, readyAt: -1}
	}
	return true, blocker{}
}

// unitFreeAt returns the cycle at which any sequential unit the micro-op
// needs becomes free (or 0 if it needs none / the unit is pipelined).
func (p *Processor) unitFreeAt(d *isa.Decoded) int64 {
	info := d.Info
	switch {
	case info.IsDiv && d.Class == isa.ClassScalar:
		return p.cuDivFree
	case info.IsDiv:
		return p.peDivFree
	case info.IsMul && p.params.SeqMul && d.Class == isa.ClassScalar:
		return p.cuMulFree
	case info.IsMul && p.params.SeqMul:
		return p.peMulFree
	}
	return 0
}

// reserveUnit marks a sequential unit busy after an issue at cycle t.
func (p *Processor) reserveUnit(d *isa.Decoded, t int64) {
	info := d.Info
	switch {
	case info.IsDiv && d.Class == isa.ClassScalar:
		p.cuDivFree = t + int64(p.params.DivLatency)
	case info.IsDiv:
		p.peDivFree = t + int64(p.params.DivLatency)
	case info.IsMul && p.params.SeqMul && d.Class == isa.ClassScalar:
		p.cuMulFree = t + int64(p.params.MulLatency)
	case info.IsMul && p.params.SeqMul:
		p.peMulFree = t + int64(p.params.MulLatency)
	}
}

// Step simulates one clock cycle. It returns false once the machine has
// halted and the pipeline has drained.
func (p *Processor) Step() (bool, error) {
	if p.done() {
		return false, nil
	}

	// Structural co-simulation: advance the network bank first, so an
	// operation pushed at issue cycle t takes its first pipeline step at
	// t+1 (entering B1) and emerges at t+b+r+1, the end of its last
	// reduction stage.
	if p.structural != nil {
		if err := p.stepStructural(); err != nil {
			return false, err
		}
	}

	// Issue phase: classify every thread, pick one ready thread.
	n := p.cfg.Machine.Threads
	sts := p.statusBuf
	readyCount := 0
	for tid := 0; tid < n; tid++ {
		r, why := p.threadStatus(tid)
		sts[tid] = threadState{ready: r, why: why}
		if r {
			readyCount++
		}
	}
	isReady := func(tid int) bool { return sts[tid].ready }

	var picked int
	switch p.cfg.Scheduler {
	case SchedFixed:
		picked = p.front.PickFixed(isReady)
	default:
		picked = p.front.PickRotating(isReady)
	}

	if picked >= 0 {
		firstClass := p.headClass(picked)
		if err := p.issue(picked); err != nil {
			return false, err
		}
		issued := 1
		if p.cfg.SMT {
			// Second issue slot: a thread whose next instruction uses the
			// other datapath. Statuses are re-evaluated because the first
			// issue changed machine and scoreboard state.
			second := p.pickSecond(picked, firstClass)
			if second >= 0 {
				if err := p.issue(second); err != nil {
					return false, err
				}
				issued++
			}
		}
		if extra := readyCount - issued; extra > 0 {
			p.stats.Contention += int64(extra)
		}
		p.lastIssue = p.cycle
	} else if p.anyActive() {
		p.stats.IdleCycles++
		// Attribute the lost issue slot to the thread closest to ready.
		best := blocker{kind: pipeline.HazardNone, readyAt: -1}
		for tid := 0; tid < n; tid++ {
			w := sts[tid].why
			if w.kind == pipeline.HazardNone {
				continue
			}
			if best.kind == pipeline.HazardNone ||
				(w.readyAt >= 0 && (best.readyAt < 0 || w.readyAt < best.readyAt)) {
				best = w
			}
		}
		if best.kind != pipeline.HazardNone {
			p.stats.IdleByKind[best.kind]++
		}
		if p.cycle-p.lastIssue > p.cfg.DeadlockWindow {
			return false, fmt.Errorf("core: no instruction issued for %d cycles (deadlock at cycle %d)", p.cfg.DeadlockWindow, p.cycle)
		}
	}

	// Fetch phase (same cycle, after issue, so a decode-stage redirect can
	// refetch immediately).
	p.front.Fetch(p.cycle)

	p.cycle++
	return !p.done(), nil
}

// headClass returns the pipeline class of tid's next instruction (only
// valid when the thread was just found ready).
func (p *Processor) headClass(tid int) isa.Class {
	head, ok := p.front.Head(tid)
	if !ok {
		return isa.ClassScalar
	}
	return head.D.Class
}

// scalarPath reports whether a class uses the scalar datapath issue port.
func scalarPath(c isa.Class) bool { return c == isa.ClassScalar }

// pickSecond selects a thread for the SMT second issue slot: ready right
// now (re-evaluated after the first issue), different thread, opposite
// datapath, and not a thread-management or halt instruction (the thread
// status table is single-ported).
func (p *Processor) pickSecond(first int, firstClass isa.Class) int {
	if p.halted {
		return -1
	}
	ok := func(tid int) bool {
		if tid == first {
			return false
		}
		ready, _ := p.threadStatus(tid)
		if !ready {
			return false
		}
		head, have := p.front.Head(tid)
		if !have {
			return false
		}
		info := head.D.Info
		if info.IsThread || info.IsHalt {
			return false
		}
		return scalarPath(head.D.Class) != scalarPath(firstClass)
	}
	switch p.cfg.Scheduler {
	case SchedFixed:
		return p.front.PickFixed(ok)
	default:
		return p.front.PickRotating(ok)
	}
}

func (p *Processor) anyActive() bool {
	for tid := 0; tid < p.cfg.Machine.Threads; tid++ {
		if p.mach.ThreadActive(tid) {
			return true
		}
	}
	return false
}

func (p *Processor) done() bool {
	if !p.halted && !p.mach.Halted() {
		return false
	}
	// Drain: run the clock to the last write-back.
	return p.cycle >= p.maxCompletion
}

// issue pops and executes the head micro-op of thread tid.
func (p *Processor) issue(tid int) error {
	head := p.front.PopHead(tid)
	d := head.D

	// Stall accounting: cycles beyond the front-end minimum, attributed to
	// the binding hazard at decode time.
	minIssue, kind := p.sb.MinIssue(tid, d)
	stall := p.cycle - head.EligibleAt()
	if stall > 0 {
		k := kind
		if minIssue <= head.EligibleAt() {
			// Not a register hazard: structural, sync, or contention.
			switch {
			case p.unitFreeAt(d) > head.EligibleAt():
				k = pipeline.HazardStructural
			default:
				k = pipeline.HazardNone
			}
		}
		if k != pipeline.HazardNone {
			p.stats.StallByKind[k] += stall
		}
	}

	if p.structural != nil && d.Class == isa.ClassReduction {
		p.pushReduction(tid, d.Inst)
	}

	out, err := p.mach.ExecDecoded(tid, d)
	if err != nil {
		return err
	}
	p.sb.Record(tid, d, p.cycle)
	p.reserveUnit(d, p.cycle)

	if c := p.params.CompletionTime(d, p.cycle); c > p.maxCompletion {
		p.maxCompletion = c
	}

	// Statistics.
	p.stats.Instructions++
	p.stats.PerThread[tid]++
	switch d.Class {
	case isa.ClassScalar:
		p.stats.Scalar++
	case isa.ClassParallel:
		p.stats.Parallel++
	case isa.ClassReduction:
		p.stats.Reduction++
	}
	if p.cfg.TraceDepth != 0 {
		rec := InstRecord{
			Issue: p.cycle, FetchCycle: head.FetchCycle, Thread: tid,
			PC: head.PC, Inst: d.Inst, Stall: stall, StallKind: kind,
		}
		if stall <= 0 {
			rec.StallKind = pipeline.HazardNone
		}
		p.trace = append(p.trace, rec)
		if p.cfg.TraceDepth > 0 && len(p.trace) > p.cfg.TraceDepth {
			p.trace = p.trace[1:]
		}
	}

	// Control flow outcomes.
	switch {
	case out.Halt:
		p.halted = true
		for t := 0; t < p.cfg.Machine.Threads; t++ {
			p.front.StopThread(t)
		}
	case out.Exited:
		p.front.StopThread(tid)
	case out.Redirect:
		resume := p.cycle + int64(p.params.ExecRedirect) - 1
		if d.Kind == isa.ExecJump && d.Jump != isa.JumpReg {
			// J/JAL: target known at decode, cheap redirect.
			resume = p.cycle + int64(p.params.DecodeRedirect) - 1
		}
		p.front.Redirect(tid, out.NextPC, resume)
	}
	if out.Spawned >= 0 {
		p.sb.ClearThread(out.Spawned)
		p.front.StartThread(out.Spawned, p.mach.PC(out.Spawned), p.cycle+int64(p.params.SpawnStart)-1)
	}
	return nil
}

// ErrCycleLimit reports that a run stopped at its cycle budget before the
// machine halted. Callers distinguishing resource exhaustion from
// architectural traps test with errors.Is.
var ErrCycleLimit = errors.New("cycle limit reached before halt")

// ErrCheckpoint reports that a run stopped because RequestCheckpoint was
// called, not because the machine halted or the budget ran out. The
// processor is at a quiescent point: Snapshot() captures a state from which
// an identically configured machine resumes bit-identically. Callers test
// with errors.Is.
var ErrCheckpoint = errors.New("run suspended at checkpoint request")

// cancelCheckWindow is how many cycles RunContext simulates between context
// polls: coarse enough that the poll is invisible in the hot loop, fine
// enough that cancellation lands within microseconds of real time.
const cancelCheckWindow = 4096

// Run simulates until the machine halts and the pipeline drains, or until
// maxCycles elapse (0 = no limit). It returns the final statistics.
func (p *Processor) Run(maxCycles int64) (Stats, error) {
	return p.RunContext(context.Background(), maxCycles)
}

// RunContext is Run with cooperative cancellation: every cancelCheckWindow
// cycles it polls ctx and the checkpoint request flag. When the context is
// done it stops and returns the statistics so far together with the
// context's error; when a checkpoint was requested it stops with
// ErrCheckpoint instead. Either way the processor is left at a quiescent
// point (between Step calls), so it can be Reset, Snapshot, or resumed
// afterwards.
func (p *Processor) RunContext(ctx context.Context, maxCycles int64) (Stats, error) {
	done := ctx.Done()
	nextCheck := p.cycle + cancelCheckWindow
	for {
		if maxCycles > 0 && p.cycle >= maxCycles {
			return p.finish(), fmt.Errorf("core: %w (limit %d)", ErrCycleLimit, maxCycles)
		}
		if p.cycle >= nextCheck {
			if p.checkpointReq.CompareAndSwap(true, false) {
				return p.finish(), fmt.Errorf("core: %w (cycle %d)", ErrCheckpoint, p.cycle)
			}
			if done != nil {
				select {
				case <-done:
					return p.finish(), fmt.Errorf("core: run stopped at cycle %d: %w", p.cycle, ctx.Err())
				default:
				}
			}
			nextCheck = p.cycle + cancelCheckWindow
		}
		if p.blocks != nil {
			// Block-dispatch tier: cover as much of the window as the
			// closed form allows, then fall back to the per-cycle path.
			stopAt := nextCheck
			if maxCycles > 0 && maxCycles < stopAt {
				stopAt = maxCycles
			}
			ran, err := p.runBlock(stopAt)
			if err != nil {
				return p.finish(), err
			}
			if ran {
				continue
			}
		}
		more, err := p.Step()
		if err != nil {
			return p.finish(), err
		}
		if !more {
			if err := p.structuralDrained(); err != nil {
				return p.finish(), err
			}
			return p.finish(), nil
		}
	}
}

func (p *Processor) finish() Stats {
	s := p.stats
	s.Cycles = p.cycle
	if p.maxCompletion+1 > s.Cycles {
		s.Cycles = p.maxCompletion + 1
	}
	s.Fetches = p.front.Fetches
	s.Flushes = p.front.Flushes
	s.BlockDispatches = p.blockDispatches
	for i, v := range p.blockFallbacks {
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

// Reset returns the processor to power-on state — architectural machine
// state, front end, scoreboard, sequential-unit reservations, statistics,
// and trace — without reallocating the flat register/flag/memory files or
// restarting the host engine's worker pool. A reset processor behaves
// identically to a freshly constructed one; the serving pool relies on this
// to reuse warm machines across requests.
func (p *Processor) Reset() {
	p.mach.Reset()
	p.front.Reset(p.mach.Decoded())
	for tid := 0; tid < p.cfg.Machine.Threads; tid++ {
		p.sb.ClearThread(tid)
	}
	p.cycle, p.lastIssue, p.maxCompletion = 0, 0, 0
	p.halted = false
	p.cuMulFree, p.cuDivFree, p.peMulFree, p.peDivFree = 0, 0, 0, 0
	p.stats = Stats{
		PerThread:   make([]int64, p.cfg.Machine.Threads),
		IdleByKind:  make(map[pipeline.HazardKind]int64),
		StallByKind: make(map[pipeline.HazardKind]int64),
	}
	p.trace = nil
	p.blockDispatches = 0
	p.blockFallbacks = [numFallbacks]int64{}
	p.checkpointReq.Store(false)
	if p.structural != nil {
		p.structural = newStructState(p.cfg.Machine.PEs, p.cfg.Arity, p.cfg.Machine.Width)
	}
}

// RequestCheckpoint asks an in-flight RunContext to stop at the next
// cancel-check window boundary with ErrCheckpoint. Safe to call from any
// goroutine; a request with no run in flight applies to the next
// RunContext on this processor (Reset clears it). Runs shorter than the
// poll window simply complete — there is no boundary at which to suspend
// them.
func (p *Processor) RequestCheckpoint() { p.checkpointReq.Store(true) }

// SetProgram retargets the processor at a new program and Resets it. The
// program is decoded and validated like New; on error the processor is
// left unchanged, still running the old program. The configuration (and
// thus all allocated state) is unchanged, which is what lets a pooled
// machine serve a stream of different programs.
func (p *Processor) SetProgram(prog []isa.Inst) error {
	dp, err := isa.DecodeProgram(prog)
	if err != nil {
		return err
	}
	p.SetDecoded(dp)
	return nil
}

// SetDecoded retargets the processor at an already-decoded program and
// Resets it.
func (p *Processor) SetDecoded(dp *isa.DecodedProgram) {
	p.mach.SetDecoded(dp)
	if p.blocks != nil {
		p.blocks = dp.Blocks()
	}
	p.Reset()
}

// Restore loads an architectural snapshot (machine.Snapshot) taken from an
// identically configured machine at a quiescent point, and resynchronizes
// the microarchitectural state: instruction buffers refetch from the
// restored PCs, the scoreboard empties (no instructions are in flight at a
// quiescent point), and any structural co-simulation state is discarded.
func (p *Processor) Restore(data []byte) error {
	if err := p.mach.Restore(data); err != nil {
		return err
	}
	for tid := 0; tid < p.cfg.Machine.Threads; tid++ {
		p.sb.ClearThread(tid)
		if p.mach.ThreadActive(tid) {
			p.front.StartThread(tid, p.mach.PC(tid), p.cycle)
		} else {
			p.front.StopThread(tid)
		}
	}
	p.cuMulFree, p.cuDivFree, p.peMulFree, p.peDivFree = 0, 0, 0, 0
	p.halted = p.mach.Halted()
	if p.structural != nil {
		p.structural = newStructState(p.cfg.Machine.PEs, p.cfg.Arity, p.cfg.Machine.Width)
	}
	return nil
}

// Snapshot serializes the architectural state (see machine.Snapshot).
func (p *Processor) Snapshot() []byte { return p.mach.Snapshot() }

// WriteSnapshot streams the architectural snapshot to w (see
// machine.WriteSnapshot).
func (p *Processor) WriteSnapshot(w io.Writer) error { return p.mach.WriteSnapshot(w) }

// NetworkLatencies returns (b, r) for convenience in reports.
func (p *Processor) NetworkLatencies() (b, r int) { return p.params.B, p.params.R }

// Describe summarizes the processor configuration.
func (p *Processor) Describe() string {
	mc := p.cfg.Machine
	return fmt.Sprintf(
		"MTASC processor: %d PEs x %d-bit, %d hardware threads, %d KB local memory/PE\n"+
			"broadcast: %d-ary tree, b=%d stages (%d nodes); reduction: binary trees, r=%d stages (%d nodes/unit)\n",
		mc.PEs, mc.Width, mc.Threads, mc.LocalMemWords*int(mc.Width)/8/1024,
		p.cfg.Arity, p.params.B, network.BroadcastNodes(mc.PEs, p.cfg.Arity),
		p.params.R, network.ReduceNodes(mc.PEs))
}
