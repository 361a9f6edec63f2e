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

	// SeqMul selects the sequential multiplier (latency = data width)
	// instead of the 2-cycle pipelined hard blocks.
	SeqMul bool

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
}

// deadlockWindow aborts a run when no instruction issues for this many
// consecutive cycles while threads remain.
const deadlockWindow = 100000

// Params validates the configuration, filling defaults in place, and
// returns the derived pipeline timing parameters. Every default is filled
// even when validation fails, so an invalid configuration still resolves
// to one canonical form.
func (c *Config) Params() (pipeline.Params, error) {
	if c.Arity == 0 {
		c.Arity = 4
	}
	if err := c.Machine.Validate(); err != nil {
		return pipeline.Params{}, err
	}
	mc := c.Machine
	if c.Arity < 2 || c.Arity > 64 {
		return pipeline.Params{}, fmt.Errorf("core: Arity must be in [2, 64], got %d", c.Arity)
	}
	p := pipeline.DefaultParams(mc.PEs, c.Arity, mc.Width)
	if c.SeqMul {
		p.SeqMul = true
		p.MulLatency = int(mc.Width)
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

// Processor is a configured simulation instance: the cycle engine
// (engine.go) driving one lane. The one-lane-only features — SMT dual
// issue, structural network co-simulation, tracing, checkpoint requests,
// and Restore — exist only here; NewGangDecoded rejects the
// configurations that need them.
type Processor struct {
	engine
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
	p := new(Processor)
	if err := p.init(cfg, dp, func(mc machine.Config) ([]*machine.Machine, error) {
		m, err := machine.NewDecoded(mc, dp)
		return []*machine.Machine{m}, err
	}); err != nil {
		return nil, err
	}
	return p, nil
}

// Machine exposes the architectural state (for loading data and reading
// results).
func (p *Processor) Machine() *machine.Machine { return p.lanes[0] }

// Trace returns the recorded instruction trace (nil if TraceDepth is 0).
func (p *Processor) Trace() []InstRecord { return p.trace }

// FrontEnd exposes the control-unit front end (for introspection tools).
func (p *Processor) FrontEnd() *cu.CU { return p.front }

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
// afterwards. An architectural trap ends the run with the trap as the
// error and statistics that exclude the trapping instruction.
func (p *Processor) RunContext(ctx context.Context, maxCycles int64) (Stats, error) {
	err := p.run(ctx, maxCycles)
	return p.finish(), err
}

// RequestCheckpoint asks an in-flight RunContext to stop at the next
// cancel-check window boundary with ErrCheckpoint. Safe to call from any
// goroutine; a request with no run in flight applies to the next
// RunContext on this processor (Reset clears it). Runs shorter than the
// poll window simply complete — there is no boundary at which to suspend
// them.
func (p *Processor) RequestCheckpoint() { p.checkpointReq.Store(true) }

// Restore loads an architectural snapshot (machine.Snapshot) taken from an
// identically configured machine at a quiescent point, and resynchronizes
// the microarchitectural state: instruction buffers refetch from the
// restored PCs, the scoreboard empties (no instructions are in flight at a
// quiescent point), and any structural co-simulation state is discarded.
// Reviving the lanes invalidates the ready set, so every thread is
// re-classified on the next Step.
func (p *Processor) Restore(data []byte) error {
	m := p.Machine()
	if err := m.Restore(data); err != nil {
		return err
	}
	p.reviveLanes()
	for tid := 0; tid < p.cfg.Machine.Threads; tid++ {
		p.sb.ClearThread(tid)
		if m.ThreadActive(tid) {
			p.front.StartThread(tid, m.PC(tid), p.cycle)
		} else {
			p.front.StopThread(tid)
		}
	}
	p.cuMulFree, p.cuDivFree, p.peMulFree, p.peDivFree = 0, 0, 0, 0
	p.halted = m.Halted()
	if p.structural != nil {
		p.structural = newStructState(p.cfg.Machine.PEs, p.cfg.Arity, p.cfg.Machine.Width)
	}
	return nil
}

// Snapshot serializes the architectural state (see machine.Snapshot).
func (p *Processor) Snapshot() []byte { return p.Machine().Snapshot() }

// WriteSnapshot streams the architectural snapshot to w (see
// machine.WriteSnapshot).
func (p *Processor) WriteSnapshot(w io.Writer) error { return p.Machine().WriteSnapshot(w) }

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
