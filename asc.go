// Package asc is the public API of the MTASC library: a cycle-accurate
// simulator of the Multithreaded Associative SIMD Processor of Schaffer &
// Walker (IPDPS 2007), together with its assembler, the non-pipelined and
// coarse-grain-multithreaded baseline machines, an FPGA resource/clock
// model, and a library of associative kernels.
//
// Quick start:
//
//	prog, err := asc.Assemble(`
//		plw p1, 0(p0)     ; each PE loads its value
//		rmax s1, p1       ; global maximum in one instruction
//		sw s1, 0(s0)
//		halt
//	`)
//	proc, err := asc.New(asc.Config{PEs: 16, Threads: 16}, prog)
//	proc.LoadLocalMem(values)           // one row per PE
//	stats, err := proc.Run(0)
//	result := proc.ScalarMem(0)
//
// The simulator models the paper's split pipeline exactly: a k-ary
// pipelined broadcast tree (b = ceil(log_k p) stages), pipelined reduction
// trees (r = ceil(log2 p) stages), EX->B1 forwarding that removes broadcast
// hazards, the b+r-cycle reduction and broadcast-reduction hazards, and
// fine-grain multithreading with a rotating-priority scheduler that hides
// those hazards when enough threads are runnable.
//
// # Host execution
//
// Like the paper's PE array, which applies each broadcast instruction in
// lockstep, a Processor decodes each parallel or reduction instruction
// once and applies it to every PE with one op-specialized loop, on the
// goroutine that calls Run. There is one host engine; host parallelism
// comes from running several Processors at once. Config.Engine is kept
// only so existing configurations build, and selects nothing.
package asc

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/bits"

	"repro/internal/asm"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/debug"
	"repro/internal/fpga"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/trace"
)

// Config selects the architecture to simulate. The zero value gives the
// paper's prototype: 16 8-bit PEs, 16 hardware threads, 1 KB of local
// memory per PE, and a 4-ary broadcast tree.
type Config struct {
	// PEs is the number of processing elements (default 16).
	PEs int
	// Threads is the number of hardware thread contexts (default 16).
	Threads int
	// Width is the data width in bits: 8, 16, or 32 (default 8).
	Width uint
	// LocalMemWords is the PE local memory size in words (default 1024).
	LocalMemWords int
	// Arity is the broadcast tree arity k (default 4).
	Arity int
	// SeqMul selects the sequential multiplier instead of the pipelined
	// hard-block implementation (section 6.2 of the paper).
	SeqMul bool
	// FixedPriority replaces the rotating-priority scheduler with a fixed
	// lowest-thread-first policy (ablation).
	FixedPriority bool
	// SMT enables dual issue: one scalar-path and one parallel/reduction-
	// path instruction per cycle, from different hardware threads (the
	// paper's section 5 discusses SMT as the costlier multithreading
	// variant; the split pipeline has exactly two issue ports). IPC may
	// then exceed 1.0.
	SMT bool
	// TraceDepth keeps the most recent N instruction records for pipeline
	// diagrams (0 = off, -1 = keep all).
	TraceDepth int
	// Engine is ignored: every Processor runs the one serial host engine.
	// Only EngineAuto (the zero value) and EngineSerial are valid.
	//
	// Deprecated: leave Engine unset.
	Engine Engine
	// Blocks selects the block-dispatch tier: BlocksAuto (default)
	// dispatches straight-line basic blocks — with hot associative idioms
	// fused into superinstructions — in one shot whenever exactly one
	// hardware thread is active, falling back to the per-cycle path at
	// control flow, traps, and multithreaded phases. BlocksOff forces the
	// per-cycle path everywhere. Architecturally invisible: snapshots,
	// statistics, and cycle counts are bit-identical either way.
	Blocks BlocksMode
}

// BlocksMode selects the block-dispatch tier for Config.Blocks.
type BlocksMode = core.BlocksMode

// Block-dispatch modes for Config.Blocks.
const (
	// BlocksAuto engages block dispatch whenever it is provably exact.
	BlocksAuto = core.BlocksAuto
	// BlocksOff forces the per-cycle dispatch path (A/B baseline).
	BlocksOff = core.BlocksOff
)

// Engine names the host execution engine; there is one (see the package
// comment).
//
// Deprecated: Config.Engine selects nothing.
type Engine = machine.Engine

// The valid values of Config.Engine. Both run the one serial host engine.
//
// Deprecated: leave Config.Engine unset.
const (
	// EngineAuto is the zero value.
	EngineAuto = machine.EngineAuto
	// EngineSerial is equivalent to EngineAuto.
	EngineSerial = machine.EngineSerial
)

// Key returns a canonical fingerprint of the configuration after default
// resolution: two Configs with equal Keys build architecturally identical
// processors. The serving pool (internal/pool) keys warm-machine reuse on
// it. Engine is left out: it selects nothing, so configurations that
// differ only in Engine build the same processor.
func (c Config) Key() string {
	cc := c.coreConfig()
	// Params fills every default in place before it validates, so an
	// invalid configuration keys on its resolved fields too; the error
	// belongs to New.
	_, _ = cc.Params()
	mc := cc.Machine
	return fmt.Sprintf("pes=%d threads=%d width=%d lmem=%d arity=%d seqmul=%t fixed=%t smt=%t trace=%d blocks=%s",
		mc.PEs, mc.Threads, mc.Width, mc.LocalMemWords, cc.Arity,
		c.SeqMul, c.FixedPriority, c.SMT, c.TraceDepth, c.Blocks)
}

// Geometry is the memory geometry of the machine a Config builds, after
// default resolution: the sizes of the flat state files a Processor
// allocates. It lets callers admitting untrusted configurations (the
// serving daemon's footprint guard, dump clamping) reason about machine
// sizes without re-stating the simulator's defaults.
type Geometry struct {
	PEs            int // processing elements
	Threads        int // hardware thread contexts
	LocalMemWords  int // local memory words per PE
	ScalarMemWords int // control-unit data memory words
	// RegsPerPE is the register count each PE holds per thread: parallel
	// general-purpose plus flag registers.
	RegsPerPE int
	// FootprintWords is the total flat-state allocation in words: local
	// memories, per-thread register and flag files, scalar registers and
	// memory, and the reduction-tree leaf buffer.
	FootprintWords int64
	// SnapshotBytes is the length of the largest snapshot image the machine
	// can produce: Processor.Snapshot with every mailbox full.
	SnapshotBytes int64
}

// Geometry resolves the configuration's defaults and sizes its flat state
// files. The arithmetic is overflow-checked: an invalid configuration or
// one whose footprint overflows int64 words returns an error, so hostile
// dimensions can be rejected before any allocation is attempted.
func (c Config) Geometry() (Geometry, error) {
	mc := c.coreConfig().Machine
	if err := mc.Validate(); err != nil {
		return Geometry{}, err
	}
	g := Geometry{
		PEs:            mc.PEs,
		Threads:        mc.Threads,
		LocalMemWords:  mc.LocalMemWords,
		ScalarMemWords: mc.ScalarMemWords,
		RegsPerPE:      isa.NumParallelRegs + isa.NumFlagRegs,
	}
	ok := true
	local := mulWords(int64(g.PEs), int64(g.LocalMemWords), &ok)
	regs := mulWords(mulWords(int64(g.Threads), int64(g.PEs), &ok), int64(g.RegsPerPE), &ok)
	scalarRegs := mulWords(int64(g.Threads), isa.NumScalarRegs, &ok)
	total := addWords(local, regs, &ok)
	total = addWords(total, scalarRegs, &ok)
	total = addWords(total, int64(g.ScalarMemWords), &ok)
	total = addWords(total, int64(g.PEs), &ok) // reduction-tree leaf buffer
	// An image takes under 8 bytes per footprint word, plus its header, so
	// this bound also keeps SnapshotBytes from overflowing.
	if !ok || total > math.MaxInt64/16 {
		return Geometry{}, fmt.Errorf("asc: machine footprint overflows int64 words (PEs=%d Threads=%d LocalMemWords=%d)",
			g.PEs, g.Threads, g.LocalMemWords)
	}
	g.FootprintWords = total
	g.SnapshotBytes = int64(machine.SnapshotLen(mc, mc.Threads*mc.MailboxCap))
	return g, nil
}

// mulWords and addWords are the overflow-checked arithmetic behind
// Geometry; inputs are non-negative (machine.Config.Validate enforces it).
func mulWords(a, b int64, ok *bool) int64 {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi != 0 || lo > math.MaxInt64 {
		*ok = false
		return 0
	}
	return int64(lo)
}

func addWords(a, b int64, ok *bool) int64 {
	if a > math.MaxInt64-b {
		*ok = false
		return 0
	}
	return a + b
}

func (c Config) coreConfig() core.Config {
	cc := core.Config{
		Machine: machine.Config{
			PEs:           c.PEs,
			Threads:       c.Threads,
			Width:         c.Width,
			LocalMemWords: c.LocalMemWords,
			Engine:        c.Engine,
		},
		Arity:      c.Arity,
		SeqMul:     c.SeqMul,
		SMT:        c.SMT,
		TraceDepth: c.TraceDepth,
		Blocks:     c.Blocks,
	}
	if c.FixedPriority {
		cc.Scheduler = core.SchedFixed
	}
	return cc
}

// Program is an assembled MTASC program, carrying both the raw
// instruction form and the validated decoded micro-op form (the decode
// plane). Decoding happens once here, at assembly time; every processor
// built from the Program shares the immutable decoded form.
type Program struct {
	prog *asm.Program
	dec  *isa.DecodedProgram
	data []int64 // the .data image as scalar-memory words, converted once
}

// newProgram decodes an assembled program and converts its .data image.
func newProgram(p *asm.Program) (*Program, error) {
	dec, err := isa.DecodeProgram(p.Insts)
	if err != nil {
		return nil, err
	}
	data := make([]int64, len(p.Data))
	for i, w := range p.Data {
		data[i] = int64(w)
	}
	return &Program{prog: p, dec: dec, data: data}, nil
}

// loadData initializes m's scalar memory from the program's .data image.
func (p *Program) loadData(m *machine.Machine) error {
	if len(p.data) == 0 {
		return nil
	}
	return m.LoadScalarMem(p.data)
}

// ErrInvalidProgram is the sentinel wrapped by program-validation
// failures: undefined opcodes, register indices outside their file, or
// static branch/jump/spawn targets outside the program. Assemble,
// CompileASCL, New, and SetProgram reject such programs up front; test
// with errors.Is.
var ErrInvalidProgram = isa.ErrInvalidProgram

// Assemble translates MTASC assembly into a program and validates it
// (decode-plane checks; errors wrap ErrInvalidProgram). See internal/asm
// for the full syntax; assembly errors carry 1-based source line numbers.
func Assemble(src string) (*Program, error) {
	p, err := asm.Assemble(src)
	if err != nil {
		return nil, err
	}
	return newProgram(p)
}

// MustAssemble is Assemble that panics on error, for constant sources.
func MustAssemble(src string) *Program {
	p, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return p
}

// Listing renders a disassembly listing with labels and encodings.
func (p *Program) Listing() string { return asm.Disassemble(p.prog) }

// Len returns the number of instructions.
func (p *Program) Len() int { return len(p.prog.Insts) }

// Label returns the address of a label.
func (p *Program) Label(name string) (int, bool) {
	addr, ok := p.prog.Labels[name]
	return addr, ok
}

// Words returns the binary encoding of the program.
func (p *Program) Words() []uint32 { return append([]uint32(nil), p.prog.Words...) }

// BlocksBuilt reports whether the program's block-compiled form (the
// basic-block and superinstruction artifact the block-dispatch tier
// executes) has already been built. The build happens lazily on the
// first run with Config.Blocks enabled and is shared by every processor
// running the program; the serving tier reports this per result as
// blockCacheHit, the block-plane analogue of programCacheHit.
func (p *Program) BlocksBuilt() bool { return p.dec.BlocksBuilt() }

// Stats summarizes a simulation run.
type Stats struct {
	// Cycles is the total cycle count including pipeline drain.
	Cycles int64
	// Instructions issued, total and by pipeline path.
	Instructions int64
	Scalar       int64
	Parallel     int64
	Reduction    int64
	// IdleCycles is the number of issue slots no thread could fill;
	// IdleByCause attributes them ("reduction", "broadcast-reduction",
	// "data", "structural", "control", "sync", "fetch").
	IdleCycles  int64
	IdleByCause map[string]int64
	// StallByCause sums per-instruction wait cycles by hazard class.
	StallByCause map[string]int64
	// Contention counts ready-but-not-selected thread-cycles: more than one
	// thread was ready for the single issue slot (the multithreading
	// headroom the paper's scheduler exploits).
	Contention int64
	// Fetches and Flushes are front-end counters: instruction-buffer fills
	// and control-redirect discards.
	Fetches int64
	Flushes int64
	// BlockDispatches counts block-plane entries (each dispatching one or
	// more micro-ops in one shot); BlockFallbacks attributes declines back
	// to the per-cycle path ("multithread", "refill", "boundary",
	// "window"). Both zero when Config.Blocks is off.
	BlockDispatches int64
	BlockFallbacks  map[string]int64
	// PerThread[t] is the instruction count issued by hardware thread t.
	PerThread []int64
}

// ActiveThreads counts hardware threads that issued at least one
// instruction during the run.
func (s Stats) ActiveThreads() int {
	n := 0
	for _, c := range s.PerThread {
		if c > 0 {
			n++
		}
	}
	return n
}

// IPC is issued instructions per cycle: at most 1.0 for the single-issue
// machine, at most 2.0 with Config.SMT.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

func convertStats(cs core.Stats) Stats {
	s := Stats{
		Cycles:       cs.Cycles,
		Instructions: cs.Instructions,
		Scalar:       cs.Scalar,
		Parallel:     cs.Parallel,
		Reduction:    cs.Reduction,
		IdleCycles:   cs.IdleCycles,
		IdleByCause:  map[string]int64{},
		StallByCause: map[string]int64{},
		Contention:   cs.Contention,
		Fetches:      cs.Fetches,
		Flushes:      cs.Flushes,
		PerThread:    append([]int64(nil), cs.PerThread...),

		BlockDispatches: cs.BlockDispatches,
	}
	if len(cs.BlockFallbacks) > 0 {
		s.BlockFallbacks = make(map[string]int64, len(cs.BlockFallbacks))
		for k, v := range cs.BlockFallbacks {
			s.BlockFallbacks[k] = v
		}
	}
	for k, v := range cs.IdleByKind {
		s.IdleByCause[k.String()] = v
	}
	for k, v := range cs.StallByKind {
		s.StallByCause[k.String()] = v
	}
	return s
}

// ErrCycleLimit reports that Run or RunContext stopped at its cycle budget
// before the program halted; test with errors.Is to distinguish resource
// exhaustion from architectural traps.
var ErrCycleLimit = core.ErrCycleLimit

// ErrCheckpoint reports that RunContext stopped because RequestCheckpoint
// was called: the machine is at a quiescent point and Snapshot() captures a
// state that resumes bit-identically on any identically configured
// processor. The serving tier's live-migration path is built on this.
var ErrCheckpoint = core.ErrCheckpoint

// Processor is a simulated Multithreaded ASC Processor instance.
type Processor struct {
	cfg  Config
	prog *Program
	core *core.Processor
}

// New builds a processor running prog, reusing the program's decoded form
// (no per-construction decode).
func New(cfg Config, prog *Program) (*Processor, error) {
	c, err := core.NewDecoded(cfg.coreConfig(), prog.dec)
	if err != nil {
		return nil, err
	}
	if err := prog.loadData(c.Machine()); err != nil {
		return nil, err
	}
	return &Processor{cfg: cfg, prog: prog, core: c}, nil
}

// Config returns the configuration the processor was built with.
func (p *Processor) Config() Config { return p.cfg }

// Reset returns the processor to power-on state — all registers, flags,
// memories, thread contexts, pipeline state, and statistics — without
// reallocating the flat state files, then reloads the program's data
// segment. A reset processor produces snapshots and results identical to a
// freshly built one; the serving pool uses it to recycle warm machines
// between requests.
func (p *Processor) Reset() error {
	p.core.Reset()
	return p.prog.loadData(p.core.Machine())
}

// SetProgram swaps in a new program and Resets the processor. The machine
// configuration — and therefore every allocation — is unchanged, so a
// pooled processor serves a stream of different programs at zero
// construction cost.
func (p *Processor) SetProgram(prog *Program) error {
	p.core.SetDecoded(prog.dec)
	p.prog = prog
	return prog.loadData(p.core.Machine())
}

// LoadLocalMem initializes PE local memories: data[pe][word].
func (p *Processor) LoadLocalMem(data [][]int64) error {
	return p.core.Machine().LoadLocalMem(data)
}

// LoadScalarMem initializes the control unit data memory from address 0.
func (p *Processor) LoadScalarMem(data []int64) error {
	return p.core.Machine().LoadScalarMem(data)
}

// Run simulates to completion, or for at most maxCycles (0 = unlimited).
func (p *Processor) Run(maxCycles int64) (Stats, error) {
	cs, err := p.core.Run(maxCycles)
	return convertStats(cs), err
}

// RunContext is Run with cooperative cancellation: the simulation polls ctx
// every few thousand cycles and stops with ctx's error once it is done,
// returning the statistics accumulated so far. This is how the serving
// daemon enforces per-request wall-clock limits.
func (p *Processor) RunContext(ctx context.Context, maxCycles int64) (Stats, error) {
	cs, err := p.core.RunContext(ctx, maxCycles)
	return convertStats(cs), err
}

// Step advances one clock cycle; it reports false once the machine halted
// and the pipeline drained.
func (p *Processor) Step() (bool, error) { return p.core.Step() }

// Cycle returns the current simulation cycle — the resume point a
// checkpoint taken now will continue from.
func (p *Processor) Cycle() int64 { return p.core.Cycle() }

// RequestCheckpoint asks an in-flight RunContext to suspend at the next
// poll-window boundary with ErrCheckpoint, leaving the machine quiescent
// for Snapshot. Safe to call from any goroutine. A request with no run in
// flight applies to the next RunContext; Reset clears it. Runs shorter
// than the poll window (a few thousand cycles) complete instead.
func (p *Processor) RequestCheckpoint() { p.core.RequestCheckpoint() }

// Scalar reads scalar register r of hardware thread t.
func (p *Processor) Scalar(t int, r int) int64 {
	return p.core.Machine().Scalar(t, uint8(r))
}

// Parallel reads parallel register r of PE pe in thread t.
func (p *Processor) Parallel(t, pe, r int) int64 {
	return p.core.Machine().Parallel(t, pe, uint8(r))
}

// Flag reads flag register r of PE pe in thread t.
func (p *Processor) Flag(t, pe, r int) bool {
	return p.core.Machine().Flag(t, pe, uint8(r))
}

// ScalarMem reads word w of the control unit data memory.
func (p *Processor) ScalarMem(w int) int64 { return p.core.Machine().ScalarMem(w) }

// LocalMem reads word w of PE pe's local memory.
func (p *Processor) LocalMem(pe, w int) int64 { return p.core.Machine().LocalMem(pe, w) }

// Debug runs an interactive debugger REPL on the processor (step,
// breakpoints, register/memory inspection, pipeline diagrams). Commands
// are read from in and responses written to out; build the processor with
// TraceDepth != 0 for diagrams and breakpoints.
func (p *Processor) Debug(in io.Reader, out io.Writer) error {
	return debug.New(p.core, in, out).Run()
}

// Snapshot serializes the complete architectural state (registers, flags,
// memories, thread contexts) for checkpointing. Restore it into a processor
// built with the same Config and Program. Snapshots capture architectural
// state between instructions; pipeline state rebuilds on resume.
func (p *Processor) Snapshot() []byte { return p.core.Snapshot() }

// WriteSnapshot streams the bytes of Snapshot to w through a fixed-size
// buffer, so hashing or sending a checkpoint allocates nothing
// proportional to the machine. It returns the first error w reports.
func (p *Processor) WriteSnapshot(w io.Writer) error { return p.core.WriteSnapshot(w) }

// Restore loads a Snapshot taken from an identically configured processor.
func (p *Processor) Restore(data []byte) error { return p.core.Restore(data) }

// NetworkLatencies returns the derived broadcast (b) and reduction (r)
// pipeline depths.
func (p *Processor) NetworkLatencies() (b, r int) { return p.core.NetworkLatencies() }

// PipelineDiagram renders the Figure-2-style stage diagram of the traced
// instructions (requires Config.TraceDepth != 0).
func (p *Processor) PipelineDiagram() string {
	return trace.Diagram(p.core.Params(), p.core.Trace())
}

// VCD renders the traced run as a Value Change Dump waveform (viewable in
// GTKWave); requires Config.TraceDepth != 0.
func (p *Processor) VCD() string {
	return trace.VCD(p.core.Params(), p.core.Trace())
}

// PipelineGraph renders the Figure-1-style pipeline organization.
func (p *Processor) PipelineGraph() string { return p.core.Params().StageGraph() }

// Describe summarizes the configuration (PEs, threads, network shape).
func (p *Processor) Describe() string {
	return p.core.Describe() + p.core.FrontEnd().Describe()
}

// FormatStats renders a human-readable run summary with the idle and
// stall breakdowns by hazard cause and the front-end counters.
func FormatStats(s Stats) string {
	var out string
	out += fmt.Sprintf("cycles: %d  instructions: %d  IPC: %.3f\n", s.Cycles, s.Instructions, s.IPC())
	out += fmt.Sprintf("by path: scalar %d, parallel %d, reduction %d\n", s.Scalar, s.Parallel, s.Reduction)
	out += fmt.Sprintf("idle cycles: %d %v\n", s.IdleCycles, s.IdleByCause)
	if len(s.StallByCause) > 0 {
		var stalls int64
		for _, v := range s.StallByCause {
			stalls += v
		}
		out += fmt.Sprintf("instruction stalls: %d %v\n", stalls, s.StallByCause)
	}
	out += fmt.Sprintf("fetches: %d, flushed: %d, ready-contention: %d\n", s.Fetches, s.Flushes, s.Contention)
	if len(s.PerThread) > 0 {
		out += fmt.Sprintf("threads used: %d of %d\n", s.ActiveThreads(), len(s.PerThread))
	}
	return out
}

// Baselines.

// BaselineResult reports a baseline machine run.
type BaselineResult struct {
	Cycles       int64
	Instructions int64
	Switches     int64 // coarse-grain thread switches
}

// IPC is instructions per cycle.
func (r BaselineResult) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// NonPipelined simulates prog on the non-pipelined ASC processor baseline
// (the 2002/2003 prototypes: CPI 1 but bit-serial max/min and a clock that
// must cover full network propagation) and returns its cycle counts along
// with the finished machine state reader.
type NonPipelined struct {
	b *baseline.NonPipelined
}

// NewNonPipelined builds the non-pipelined baseline.
func NewNonPipelined(cfg Config, prog *Program) (*NonPipelined, error) {
	b, err := baseline.NewNonPipelined(machine.Config{
		PEs: cfg.PEs, Threads: 1, Width: cfg.Width, LocalMemWords: cfg.LocalMemWords,
		Engine: cfg.Engine,
	}, prog.prog.Insts)
	if err != nil {
		return nil, err
	}
	return &NonPipelined{b: b}, nil
}

// LoadLocalMem initializes PE local memories.
func (n *NonPipelined) LoadLocalMem(data [][]int64) error { return n.b.Machine().LoadLocalMem(data) }

// LoadScalarMem initializes the data memory.
func (n *NonPipelined) LoadScalarMem(data []int64) error { return n.b.Machine().LoadScalarMem(data) }

// Run executes to completion.
func (n *NonPipelined) Run(maxCycles int64) (BaselineResult, error) {
	r, err := n.b.Run(maxCycles)
	return BaselineResult{Cycles: r.Cycles, Instructions: r.Instructions}, err
}

// ScalarMem reads the finished data memory.
func (n *NonPipelined) ScalarMem(w int) int64 { return n.b.Machine().ScalarMem(w) }

// CoarseGrain simulates prog on the coarse-grain multithreaded baseline
// (switch-on-long-stall with a flush penalty, section 5).
type CoarseGrain struct {
	b *baseline.CoarseGrain
}

// NewCoarseGrain builds the coarse-grain baseline.
func NewCoarseGrain(cfg Config, prog *Program) (*CoarseGrain, error) {
	arity := cfg.Arity
	b, err := baseline.NewCoarseGrain(machine.Config{
		PEs: cfg.PEs, Threads: cfg.Threads, Width: cfg.Width, LocalMemWords: cfg.LocalMemWords,
		Engine: cfg.Engine,
	}, arity, prog.prog.Insts)
	if err != nil {
		return nil, err
	}
	return &CoarseGrain{b: b}, nil
}

// LoadLocalMem initializes PE local memories.
func (c *CoarseGrain) LoadLocalMem(data [][]int64) error { return c.b.Machine().LoadLocalMem(data) }

// LoadScalarMem initializes the data memory.
func (c *CoarseGrain) LoadScalarMem(data []int64) error { return c.b.Machine().LoadScalarMem(data) }

// Run executes to completion.
func (c *CoarseGrain) Run(maxCycles int64) (BaselineResult, error) {
	r, err := c.b.Run(maxCycles)
	return BaselineResult{Cycles: r.Cycles, Instructions: r.Instructions, Switches: r.Switches}, err
}

// ScalarMem reads the finished data memory.
func (c *CoarseGrain) ScalarMem(w int) int64 { return c.b.Machine().ScalarMem(w) }

// FPGA resource and clock model (Table 1 of the paper).

// ResourceReport is the Table-1 style breakdown in Cyclone II terms.
type ResourceReport struct {
	ControlUnitLEs, ControlUnitRAMs int
	PEArrayLEs, PEArrayRAMs         int
	NetworkLEs, NetworkRAMs         int
	TotalLEs, TotalRAMs             int
}

func (r ResourceReport) String() string {
	return fpga.Report{
		ControlUnit: fpga.Usage{LEs: r.ControlUnitLEs, RAMs: r.ControlUnitRAMs},
		PEArray:     fpga.Usage{LEs: r.PEArrayLEs, RAMs: r.PEArrayRAMs},
		Network:     fpga.Usage{LEs: r.NetworkLEs, RAMs: r.NetworkRAMs},
		Total:       fpga.Usage{LEs: r.TotalLEs, RAMs: r.TotalRAMs},
	}.String()
}

func archOf(cfg Config) fpga.Arch {
	return fpga.Arch{
		PEs:           cfg.PEs,
		Threads:       cfg.Threads,
		Width:         cfg.Width,
		LocalMemWords: cfg.LocalMemWords,
		Arity:         cfg.Arity,
	}
}

// EstimateResources sizes the configuration with the calibrated FPGA model.
func EstimateResources(cfg Config) ResourceReport {
	r := fpga.Estimate(archOf(cfg))
	return ResourceReport{
		ControlUnitLEs: r.ControlUnit.LEs, ControlUnitRAMs: r.ControlUnit.RAMs,
		PEArrayLEs: r.PEArray.LEs, PEArrayRAMs: r.PEArray.RAMs,
		NetworkLEs: r.Network.LEs, NetworkRAMs: r.Network.RAMs,
		TotalLEs: r.Total.LEs, TotalRAMs: r.Total.RAMs,
	}
}

// MaxPEsOnDevice returns how many PEs of this configuration fit a named
// Cyclone II device (e.g. "EP2C35"), and which resource binds.
func MaxPEsOnDevice(cfg Config, device string) (int, string, error) {
	d, ok := fpga.DeviceByName(device)
	if !ok {
		return 0, "", fmt.Errorf("asc: unknown device %q", device)
	}
	n, binding := fpga.MaxPEs(archOf(cfg), d)
	return n, binding, nil
}

// PipelinedClockMHz is the modeled clock of the pipelined design.
func PipelinedClockMHz(cfg Config) float64 {
	a := archOf(cfg)
	if a.Width == 0 {
		a.Width = 8
	}
	return fpga.PipelinedClockMHz(a.Width)
}

// NonPipelinedClockMHz is the modeled clock of the non-pipelined baseline,
// which degrades as the PE count grows.
func NonPipelinedClockMHz(cfg Config) float64 {
	a := archOf(cfg)
	if a.Width == 0 {
		a.Width = 8
	}
	if a.PEs == 0 {
		a.PEs = 16
	}
	return fpga.NonPipelinedClockMHz(a.PEs, a.Width)
}

// WallTimeMs converts cycles at a clock rate to milliseconds.
func WallTimeMs(cycles int64, clockMHz float64) float64 {
	return fpga.WallTimeMs(cycles, clockMHz)
}
