// Package machine implements the architectural state and functional
// semantics of the MTASC processor: the control unit's scalar state, the PE
// array (local memory, general-purpose register file, flag register file,
// ALU, multiplier, divider — section 6.2 of the paper), and the thread
// contexts with their mailboxes (section 6.1).
//
// The package is purely functional: ExecDecoded applies one pre-decoded
// micro-op for one thread and reports the control-flow outcome. All timing
// (pipelines, hazards, multithreaded issue) lives in internal/pipeline and
// internal/core; the baselines in internal/baseline reuse the same
// functional core, so every machine model computes identical results.
//
// Programs are decoded once (isa.DecodeProgram) when loaded — New
// validates and rejects bad programs up front — and the per-cycle
// paths dispatch on the precomputed selectors in isa.Decoded, never on raw
// opcodes. The pre-decode-plane interpreter is retained in ref.go (ExecRef)
// as the oracle for differential testing.
//
// Value representation: registers and memory words hold the raw bit pattern
// in the low Width bits of an int64 (0 .. 2^Width-1). Signed operations
// sign-extend explicitly. Register s0 and parallel register p0 read as zero
// and ignore writes; flag f0 reads as one (the "all PEs active" mask) and
// ignores writes. Flags are 1-bit registers, stored packed 64 PEs to a
// uint64 word: bit i of a flag register row is the PE whose word sits at
// element i of the matching parallel register row. Each row is padded to
// whole words and its padding bits are always zero, f0's included.
//
// Host execution: the PE array is one broadcast unit, so the host runs it
// the same way — each parallel-class and reduction micro-op is decided
// once and applied to every PE by an op-specialized kernel (kernels.go),
// one tight loop per ALU op, compare condition, flag function and
// reduction kind, on the calling goroutine. ExecLanes is the one entry
// point: it runs a micro-op over every live lane of a gang plane
// (gang.go), and a solo machine is its one-lane case. A gang's register
// and flag files are one lane-major plane, [thread][reg][lane][pe], so a
// run of side-by-side lanes is one wide array to a kernel, and a solo
// machine's plane is the [thread][reg][pe] layout. Flag logic, the
// response counter and the resolver work a word (64 PEs) at a time; the
// value kernels walk their mask a word at a time too, skipping empty
// words and running one unmasked loop per run of set bits, a full word
// being one run. Host parallelism comes from
// running many machines at once (the serving stack's concurrent jobs),
// never from splitting one array. OR, AND, MAX and MIN fold in one masked
// pass; the node-saturating sum adds its responders directly when no tree
// node can saturate, and otherwise folds with the exact binary-tree
// topology of the hardware unit.
//
// Reset returns a machine to power-on state for reuse. It clears the
// local and scalar memories only up to the highest word written since the
// last Reset (each memory writer raises that dirty extent), so recycling
// a machine costs what its last job touched, not what it could hold.
package machine

import (
	"fmt"
	"math/bits"

	"repro/internal/isa"
	"repro/internal/network"
)

// Config holds the architectural parameters of a machine instance.
type Config struct {
	PEs            int  // number of processing elements (p)
	Threads        int  // hardware thread contexts (T)
	Width          uint // data width in bits: 8 (paper prototype), 16, or 32
	LocalMemWords  int  // PE local memory size in words
	ScalarMemWords int  // control-unit data memory size in words
	MailboxCap     int  // per-thread mailbox depth for TSEND/TRECV

	// Deprecated: Engine selects nothing; every machine runs the one
	// serial engine. Validate accepts only EngineAuto and EngineSerial.
	Engine Engine
}

// Engine names the host execution engine. There is one: a machine runs
// its PE array on the calling goroutine (see the package comment).
//
// Deprecated: Config.Engine selects nothing. EngineAuto and EngineSerial
// remain valid values so existing configurations still build; Validate
// rejects any other.
type Engine uint8

const (
	// EngineAuto is the zero value; it runs the one serial engine.
	EngineAuto Engine = iota
	// EngineSerial runs the one serial engine, like EngineAuto.
	EngineSerial
)

// Validate checks the configuration and fills defaults for zero fields.
func (c *Config) Validate() error {
	if c.PEs == 0 {
		c.PEs = 16
	}
	if c.Threads == 0 {
		c.Threads = 16
	}
	if c.Width == 0 {
		c.Width = 8
	}
	if c.LocalMemWords == 0 {
		c.LocalMemWords = 1024
	}
	if c.ScalarMemWords == 0 {
		c.ScalarMemWords = 4096
	}
	if c.MailboxCap == 0 {
		c.MailboxCap = 4
	}
	if c.PEs < 1 {
		return fmt.Errorf("machine: PEs must be >= 1, got %d", c.PEs)
	}
	if c.Threads < 1 || c.Threads > 64 {
		return fmt.Errorf("machine: Threads must be in [1, 64], got %d", c.Threads)
	}
	switch c.Width {
	case 8, 16, 32:
	default:
		return fmt.Errorf("machine: Width must be 8, 16, or 32, got %d", c.Width)
	}
	if c.LocalMemWords < 1 || c.ScalarMemWords < 1 {
		return fmt.Errorf("machine: memory sizes must be positive")
	}
	if c.MailboxCap < 1 {
		return fmt.Errorf("machine: MailboxCap must be >= 1")
	}
	if c.Engine > EngineSerial {
		return fmt.Errorf("machine: unknown engine %d", c.Engine)
	}
	return nil
}

// ThreadState is the lifecycle state of a hardware thread context.
type ThreadState uint8

const (
	// ThreadFree contexts can be allocated by TSPAWN.
	ThreadFree ThreadState = iota
	// ThreadActive contexts fetch and execute instructions.
	ThreadActive
)

// thread is one hardware thread context.
type thread struct {
	state   ThreadState
	pc      int
	sregs   [isa.NumScalarRegs]int64
	mailbox []int64
}

// Machine is the complete architectural state.
type Machine struct {
	cfg  Config
	dec  *isa.DecodedProgram
	prog []isa.Inst // dec.Insts(), kept for snapshot/describe accessors

	threads []thread

	// PE register and flag state, stored flat so the kernels stream
	// contiguous memory. The register files are split between threads at
	// the hardware level (section 6.2). A gang's lanes share one lane-major
	// plane per file, [thread][reg][lane][pe]: for a fixed register, the
	// lanes' PE vectors sit side by side, so one kernel call covers a run
	// of lanes the way one broadcast covers a wider PE array. pregs and
	// flags are the whole shared planes. This lane's PE vector of parallel
	// register r of thread t starts at element (t*nRegs+r)*stride + off,
	// where off is the lane index times PEs and stride is the lane count
	// times PEs. Flags are packed 64 PEs to a word: flag register r of
	// thread t is the row of frow words at word (t*nFlags+r)*frow, holding
	// the stride PE bits of every lane in the same order, so this lane's
	// PEs are bits [off, off+PEs) of the row. Rows are padded to whole words
	// (frow = ⌈stride/64⌉) so no two rows share a word; lanes within a row
	// share words when PEs is not a multiple of 64, so every flag write is
	// masked to its bit span. A solo machine (off 0, stride PEs) is the
	// [thread][reg][pe] layout. Always reach a lane's state through
	// pregPlane and flagRow; pregPlane's three-index sub-slice of exactly
	// PEs elements makes an indexing bug panic instead of corrupting a
	// neighbour. The hardwired registers are stored as their constant value
	// — every p0 plane all zero, every f0 row all one on its PE bits
	// (clearFlags) — and no write ever reaches them, so the kernels read
	// them like any other register. Padding bits are zero in every row.
	pregs       []int64
	flags       []uint64
	off, stride int
	frow        int

	// sc is the plane's kernel scratch, shared by every lane of the plane.
	sc *scratch

	// localMem is shared between threads at the hardware level (section
	// 6.2), indexed localMem[pe*LocalMemWords + w].
	localMem []int64

	// scalarMem is the control unit's data memory, shared by all threads.
	scalarMem []int64

	// localHi and scalarHi are the dirty extents Reset clears: since the
	// last Reset, no local word index at or above localHi (in any PE) and
	// no scalar address at or above scalarHi has been written. Every
	// memory writer raises them.
	localHi, scalarHi int

	halted bool

	// leafBuf is the sum tree's leaf vector, reused across instructions
	// (the machine is not safe for concurrent use; neither is the simulator
	// around it).
	leafBuf []int64

	// w holds the data width's constants for the PE kernels.
	w width

	// satAdd is the saturating node adder for the configured width, built
	// once so the reference interpreter allocates no closures.
	satAdd network.CombineFunc
}

// New builds a machine with the given configuration and program. The
// program is decoded and validated up front; invalid programs (undefined
// opcodes, out-of-range register indices or static control-flow targets)
// are rejected with an error wrapping isa.ErrInvalidProgram.
func New(cfg Config, prog []isa.Inst) (*Machine, error) {
	dp, err := isa.DecodeProgram(prog)
	if err != nil {
		return nil, err
	}
	return NewDecoded(cfg, dp)
}

// NewDecoded builds a machine around an already-decoded program, sharing
// the decoded form (it is immutable) with any other consumers — the
// serving stack's program cache decodes once per distinct program.
func NewDecoded(cfg Config, dp *isa.DecodedProgram) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newLanes(cfg, dp, 1)[0], nil
}

// Reset restores power-on state without reallocating the flat files: all
// registers, flags (f0 aside), and memories are zeroed, mailboxes emptied,
// the halt flag cleared, and thread 0 left active at PC 0 — exactly the
// state New produces, so Snapshot of a reset machine is byte-identical to
// that of a freshly constructed one. Memory is cleared only below its
// dirty extents (localHi, scalarHi), so a run that touched a few words
// pays for a few words. ResetLanes resets a whole gang plane at once.
func (m *Machine) Reset() {
	for t := range m.threads {
		m.clearPregs(t)
		m.clearFlags(t)
	}
	m.resetRest()
}

// resetRest is Reset's part that is the lane's own, whatever its plane:
// thread contexts, the halt flag, and the dirty extents of both memories.
func (m *Machine) resetRest() {
	for t := range m.threads {
		th := &m.threads[t]
		th.state = ThreadFree
		th.pc = 0
		th.sregs = [isa.NumScalarRegs]int64{}
		th.mailbox = th.mailbox[:0]
	}
	if lmw := m.cfg.LocalMemWords; m.localHi == lmw {
		clear(m.localMem)
	} else if m.localHi > 0 {
		for o := 0; o < len(m.localMem); o += lmw {
			clear(m.localMem[o : o+m.localHi])
		}
	}
	clear(m.scalarMem[:m.scalarHi])
	m.localHi, m.scalarHi = 0, 0
	m.halted = false
	m.threads[0].state = ThreadActive
}

// SetDecoded retargets the machine at an already-decoded program without
// reallocating or resetting it: the caller Resets before the machine runs,
// once, however many machines it retargets, so stale thread PCs from the
// old program never execute against the new one.
func (m *Machine) SetDecoded(dp *isa.DecodedProgram) {
	m.dec = dp
	m.prog = dp.Insts()
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Decoded returns the loaded program in decoded micro-op form.
func (m *Machine) Decoded() *isa.DecodedProgram { return m.dec }

// Halted reports whether HALT has executed or every thread has exited.
func (m *Machine) Halted() bool {
	if m.halted {
		return true
	}
	for i := range m.threads {
		if m.threads[i].state == ThreadActive {
			return false
		}
	}
	return true
}

// ThreadActive reports whether thread t is an active context.
func (m *Machine) ThreadActive(t int) bool {
	return t >= 0 && t < m.cfg.Threads && m.threads[t].state == ThreadActive
}

// PC returns thread t's program counter.
func (m *Machine) PC(t int) int { return m.threads[t].pc }

// SetPC sets thread t's program counter (used by the fetch model).
func (m *Machine) SetPC(t, pc int) { m.threads[t].pc = pc }

// mask returns v truncated to the data width.
func (m *Machine) mask(v int64) int64 { return v & m.w.ones }

// signed sign-extends a width-masked bit pattern.
func (m *Machine) signed(v int64) int64 { return m.w.sx(v) }

// Scalar returns the value of scalar register r in thread t (bit pattern).
func (m *Machine) Scalar(t int, r uint8) int64 {
	if r == 0 {
		return 0
	}
	return m.threads[t].sregs[r]
}

// SetScalar writes scalar register r of thread t (s0 writes are dropped).
func (m *Machine) SetScalar(t int, r uint8, v int64) {
	if r == 0 {
		return
	}
	m.threads[t].sregs[r] = m.mask(v)
}

// Parallel returns parallel register r of PE pe in thread t.
func (m *Machine) Parallel(t, pe int, r uint8) int64 {
	if r == 0 {
		return 0
	}
	return m.pregPlane(t, r)[pe]
}

// SetParallel writes parallel register r of PE pe in thread t.
func (m *Machine) SetParallel(t, pe int, r uint8, v int64) {
	if r == 0 {
		return
	}
	m.pregPlane(t, r)[pe] = m.mask(v)
}

// Flag returns flag register r of PE pe in thread t. f0 reads as one.
func (m *Machine) Flag(t, pe int, r uint8) bool {
	if r == 0 {
		return true
	}
	b := m.flagBit(pe)
	return m.flagRow(t, r)[b>>6]>>(b&63)&1 != 0
}

// SetFlag writes flag register r of PE pe in thread t (f0 writes dropped).
func (m *Machine) SetFlag(t, pe int, r uint8, v bool) {
	if r == 0 {
		return
	}
	b := m.flagBit(pe)
	setBits(m.flagRow(t, r), b, b+1, v)
}

// flagBit returns PE pe's bit index in this lane's flag rows, panicking
// when pe is not one of the lane's PEs, as a plane index would.
func (m *Machine) flagBit(pe int) int {
	if uint(pe) >= uint(m.cfg.PEs) {
		panic(fmt.Sprintf("machine: PE %d out of range [0, %d)", pe, m.cfg.PEs))
	}
	return m.off + pe
}

// CheckLocalMem is LoadLocalMem's image check for a machine of c's
// geometry, for callers that sort images before any machine exists: rows
// beyond the PE count are ignored, and a row longer than a PE's local
// memory is refused.
func (c Config) CheckLocalMem(data [][]int64) error {
	for pe, row := range data[:min(len(data), c.PEs)] {
		if len(row) > c.LocalMemWords {
			return fmt.Errorf("machine: local mem row %d has %d words, capacity %d", pe, len(row), c.LocalMemWords)
		}
	}
	return nil
}

// CheckScalarMem is LoadScalarMem's image check for a machine of c's
// geometry: an image longer than the scalar memory is refused.
func (c Config) CheckScalarMem(data []int64) error {
	if len(data) > c.ScalarMemWords {
		return fmt.Errorf("machine: scalar mem image %d words, capacity %d", len(data), c.ScalarMemWords)
	}
	return nil
}

// LoadLocalMem initializes PE local memory: data[pe][w] -> word w of PE pe.
// Rows beyond the PE count are ignored; short rows leave the tail zero.
func (m *Machine) LoadLocalMem(data [][]int64) error {
	if err := m.cfg.CheckLocalMem(data); err != nil {
		return err
	}
	for pe, row := range data[:min(len(data), m.cfg.PEs)] {
		for w, v := range row {
			m.localMem[pe*m.cfg.LocalMemWords+w] = m.mask(v)
		}
		m.localHi = max(m.localHi, len(row))
	}
	return nil
}

// LocalMem returns word w of PE pe's local memory.
func (m *Machine) LocalMem(pe, w int) int64 { return m.localMem[pe*m.cfg.LocalMemWords+w] }

// LoadScalarMem initializes the control unit data memory from addr 0.
func (m *Machine) LoadScalarMem(data []int64) error {
	if err := m.cfg.CheckScalarMem(data); err != nil {
		return err
	}
	for i, v := range data {
		m.scalarMem[i] = m.mask(v)
	}
	m.scalarHi = max(m.scalarHi, len(data))
	return nil
}

// ScalarMem returns word w of the control unit data memory.
func (m *Machine) ScalarMem(w int) int64 { return m.scalarMem[w] }

// MailboxLen returns the number of queued values in thread t's mailbox.
func (m *Machine) MailboxLen(t int) int { return len(m.threads[t].mailbox) }

// Outcome reports the control-flow effect of executing one instruction.
type Outcome struct {
	NextPC   int  // the thread's next program counter
	Redirect bool // true for taken branches and jumps (pipeline flush)
	Halt     bool // HALT executed: the whole machine stops
	Exited   bool // TEXIT executed: this thread's context is now free
	Spawned  int  // thread id allocated by TSPAWN, or -1
}

// BlockedDecoded reports whether the micro-op cannot issue for thread t
// right now because of interthread synchronization: TRECV with an empty
// mailbox, TSEND to a full mailbox, or TJOIN on a live thread. Blocked
// threads are simply not ready to the scheduler (fine-grain
// multithreading, section 5).
func (m *Machine) BlockedDecoded(t int, d *isa.Decoded) bool {
	if !d.Info.Blocking {
		return false
	}
	switch d.Thread {
	case isa.ThreadOpRecv:
		return len(m.threads[t].mailbox) == 0
	case isa.ThreadOpSend:
		target := int(m.signed(m.Scalar(t, d.Inst.Ra)))
		if target < 0 || target >= m.cfg.Threads {
			return false // executes and traps
		}
		return len(m.threads[target].mailbox) >= m.cfg.MailboxCap
	case isa.ThreadOpJoin:
		target := int(m.signed(m.Scalar(t, d.Inst.Ra)))
		if target < 0 || target >= m.cfg.Threads {
			return false
		}
		return m.threads[target].state == ThreadActive
	}
	return false
}

// TrapError is an architectural trap: out-of-range memory access, bad thread
// operation, or PC out of program bounds.
type TrapError struct {
	Thread int
	PC     int
	Inst   isa.Inst
	Msg    string
}

func (e *TrapError) Error() string {
	return fmt.Sprintf("machine: trap in thread %d at pc %d (%s): %s", e.Thread, e.PC, e.Inst, e.Msg)
}

func (m *Machine) trap(t int, in isa.Inst, format string, args ...any) error {
	return &TrapError{Thread: t, PC: m.threads[t].pc, Inst: in, Msg: fmt.Sprintf(format, args...)}
}

// ExecDecoded executes one pre-decoded micro-op for thread t and advances
// that thread's PC. The caller must ensure the thread is active and not
// blocked. It applies all architectural effects immediately; the timing
// layers replay program order per thread, so this matches the in-order
// pipeline with forwarding. Dispatch is entirely on the precomputed
// selectors — no per-cycle opcode decoding. It is ExecLanes' one-lane
// case.
func (m *Machine) ExecDecoded(t int, d *isa.Decoded) (Outcome, error) {
	lanes, outs, traps := [1]*Machine{m}, [1]Outcome{}, [1]error{}
	ExecLanes(lanes[:], soloLive, t, d, outs[:], traps[:])
	return outs[0], traps[0]
}

// soloLive is the live set of a one-lane call.
var soloLive = []int{0}

// advance moves thread t's PC to out.NextPC, trapping when a thread that
// keeps running would leave the program.
func (m *Machine) advance(t int, d *isa.Decoded, out *Outcome) error {
	m.threads[t].pc = out.NextPC
	if (out.NextPC < 0 || out.NextPC > m.dec.Len()) && !out.Halt && !out.Exited {
		return m.trap(t, d.Inst, "next pc %d out of program bounds [0, %d]", out.NextPC, m.dec.Len())
	}
	return nil
}

// execScalar executes a control-unit micro-op whose outcome is
// data-dependent — control flow, thread management, scalar load or store,
// or halt — for thread t, writing its outcome to out. ExecLanes runs the
// ops that always fall through lane-wide instead.
func (m *Machine) execScalar(t int, d *isa.Decoded, out *Outcome) error {
	th := &m.threads[t]
	*out = Outcome{NextPC: th.pc + 1, Spawned: -1}
	in := &d.Inst

	switch d.Kind {
	case isa.ExecHalt:
		m.halted = true
		out.Halt = true

	case isa.ExecBranch:
		if condFns[d.Cond](m.Scalar(t, in.Rd), m.Scalar(t, in.Ra), m.w) {
			out.NextPC = int(in.Imm)
			out.Redirect = true
		}

	case isa.ExecJump:
		switch d.Jump {
		case isa.JumpAbs:
			out.NextPC = int(in.Imm)
		case isa.JumpLink:
			m.SetScalar(t, isa.LinkReg, int64(th.pc+1))
			out.NextPC = int(in.Imm)
		case isa.JumpReg:
			out.NextPC = int(m.Scalar(t, in.Ra))
		}
		out.Redirect = true

	case isa.ExecThread:
		if err := m.execThreadOp(t, d, out); err != nil {
			return err
		}

	case isa.ExecScalarLoad:
		addr := int(m.signed(m.Scalar(t, in.Ra))) + int(in.Imm)
		if addr < 0 || addr >= m.cfg.ScalarMemWords {
			return m.trap(t, *in, "scalar load address %d out of [0, %d)", addr, m.cfg.ScalarMemWords)
		}
		m.SetScalar(t, in.Rd, m.scalarMem[addr])

	case isa.ExecScalarStore:
		addr := int(m.signed(m.Scalar(t, in.Ra))) + int(in.Imm)
		if addr < 0 || addr >= m.cfg.ScalarMemWords {
			return m.trap(t, *in, "scalar store address %d out of [0, %d)", addr, m.cfg.ScalarMemWords)
		}
		m.scalarMem[addr] = m.Scalar(t, in.Rd)
		m.scalarHi = max(m.scalarHi, addr+1)

	default:
		return m.trap(t, *in, "unimplemented opcode")
	}
	return m.advance(t, d, out)
}

func (m *Machine) execThreadOp(t int, d *isa.Decoded, out *Outcome) error {
	th := &m.threads[t]
	in := &d.Inst
	switch d.Thread {
	case isa.ThreadOpID:
		m.SetScalar(t, in.Rd, int64(t))

	case isa.ThreadOpSpawn:
		target := int(in.Imm)
		if target < 0 || target >= m.dec.Len() {
			return m.trap(t, *in, "spawn target %d out of program bounds", target)
		}
		spawned := -1
		for i := range m.threads {
			if m.threads[i].state == ThreadFree {
				spawned = i
				break
			}
		}
		if spawned < 0 {
			// No free context: rd := -1 (all-ones pattern at the data width).
			m.SetScalar(t, in.Rd, m.mask(-1))
			return nil
		}
		nt := &m.threads[spawned]
		nt.state = ThreadActive
		nt.pc = target
		nt.sregs = [isa.NumScalarRegs]int64{}
		nt.mailbox = nil
		m.clearPregs(spawned)
		m.clearFlags(spawned)
		m.SetScalar(t, in.Rd, int64(spawned))
		out.Spawned = spawned

	case isa.ThreadOpExit:
		th.state = ThreadFree
		out.Exited = true

	case isa.ThreadOpJoin:
		target := int(m.signed(m.Scalar(t, in.Ra)))
		if target < 0 || target >= m.cfg.Threads {
			return m.trap(t, *in, "join on invalid thread id %d", target)
		}
		// Caller guaranteed the target is no longer active.

	case isa.ThreadOpSend:
		target := int(m.signed(m.Scalar(t, in.Ra)))
		if target < 0 || target >= m.cfg.Threads {
			return m.trap(t, *in, "send to invalid thread id %d", target)
		}
		tt := &m.threads[target]
		if len(tt.mailbox) >= m.cfg.MailboxCap {
			return m.trap(t, *in, "send to full mailbox (caller must check BlockedDecoded)")
		}
		tt.mailbox = append(tt.mailbox, m.Scalar(t, in.Rb))

	case isa.ThreadOpRecv:
		if len(th.mailbox) == 0 {
			return m.trap(t, *in, "recv on empty mailbox (caller must check BlockedDecoded)")
		}
		v := th.mailbox[0]
		th.mailbox = th.mailbox[1:]
		m.SetScalar(t, in.Rd, v)

	default:
		return m.trap(t, *in, "unimplemented thread op")
	}
	return nil
}

// execLocal runs PLW or PSW over every responder PE: the address is the
// sign-extended ra plus the immediate, and a PE whose address falls
// outside its local memory faults without touching it. The trap rule is
// deterministic: every non-faulting responder executes its access, and the
// trap reports the lowest-numbered faulting PE. (In hardware all PEs
// operate in lockstep, so "the PEs before the fault ran, the ones after
// did not" has no meaning anyway.)
func (m *Machine) execLocal(t int, d *isa.Decoded) error {
	trapPE, trapAddr, top := -1, 0, 0
	in := &d.Inst
	lmw, imm, w, p := m.cfg.LocalMemWords, int(in.Imm), m.w, m.cfg.PEs
	addrs := m.pregPlane(t, in.Ra)
	// rd is PLW's destination and PSW's source; PLW into p0 loads nothing.
	var regs []int64
	if d.Par == isa.ParStore || in.Rd != 0 {
		regs = m.pregPlane(t, in.Rd)
	}
	for k, x := range m.sc.maskView(m.flagRow(t, in.Mask), m.off, p, p) {
		for i := k << 6; x != 0; {
			y := x + x&-x
			lo, hi := i+bits.TrailingZeros64(x), i+bits.TrailingZeros64(y)
			x &= y
			for pe := lo; pe < hi; pe++ {
				addr := int(w.sx(addrs[pe])) + imm
				if addr < 0 || addr >= lmw {
					if trapPE < 0 {
						trapPE, trapAddr = pe, addr
					}
					continue
				}
				word := &m.localMem[pe*lmw+addr]
				switch {
				case d.Par == isa.ParStore:
					*word = regs[pe]
					top = max(top, addr+1)
				case regs != nil:
					regs[pe] = *word
				}
			}
		}
	}
	m.localHi = max(m.localHi, top)
	if trapPE < 0 {
		return nil
	}
	verb := "load"
	if d.Par == isa.ParStore {
		verb = "store"
	}
	return m.trap(t, d.Inst, "PE %d local %s address %d out of [0, %d)", trapPE, verb, trapAddr, lmw)
}

// pregPlane returns parallel register r of thread t over every PE.
func (m *Machine) pregPlane(t int, r uint8) []int64 { return m.pregSpan(t, r, 1) }

// pregSpan returns parallel register r of thread t over every PE of this
// lane and the n-1 lanes after it in the plane.
func (m *Machine) pregSpan(t int, r uint8, n int) []int64 {
	o := (t*isa.NumParallelRegs+int(r))*m.stride + m.off
	e := o + n*m.cfg.PEs
	return m.pregs[o:e:e]
}

// flagRow returns the words of flag register r of thread t across the
// whole plane; this lane's PEs are bits [off, off+PEs) of it.
func (m *Machine) flagRow(t int, r uint8) []uint64 {
	o := (t*isa.NumFlagRegs + int(r)) * m.frow
	return m.flags[o : o+m.frow : o+m.frow]
}

// clearPregs zeroes thread t's parallel register file.
func (m *Machine) clearPregs(t int) {
	for r := range isa.NumParallelRegs {
		clear(m.pregPlane(t, uint8(r)))
	}
}

// clearFlags zeroes this lane's bits of thread t's flag file, then sets
// its f0 bits to the hardwired one.
func (m *Machine) clearFlags(t int) {
	lo, hi := m.off, m.off+m.cfg.PEs
	for r := 1; r < isa.NumFlagRegs; r++ {
		setBits(m.flagRow(t, uint8(r)), lo, hi, false)
	}
	setBits(m.flagRow(t, 0), lo, hi, true)
}

// Reduce returns the value reduction micro-op d of thread t delivers,
// without writing it: the scalar rd receives (RCOUNT's count wrapped to the
// data width, RANY 0 or 1), or, for RFIRST, the winning PE (PEs when none
// responds). The mask flag selects the responders; reduceSeg folds them.
// Reduce touches no architectural state, so the structural co-simulation
// can ask for the value of any reduction, s0 and f0 destinations included.
func (m *Machine) Reduce(t int, d *isa.Decoded) int64 {
	a, v := m.reduceOperand(t, d, 1)
	resp, p := m.flagRow(t, d.Inst.Mask), m.cfg.PEs
	var mask []uint64
	if v != nil {
		mask = m.sc.maskView(resp, m.off, p, p)
	}
	return reduceSeg(d.Reduce, m.w, a, v, resp, m.off, p, mask, m.leafBuf)
}

// reduceOperand returns reduction d's operand of thread t: the flag row
// ra for RCOUNT, RANY and RFIRST, or parallel register ra's span over this
// lane and the n-1 lanes after it for the rest. The other is nil.
func (m *Machine) reduceOperand(t int, d *isa.Decoded, n int) (a []uint64, v []int64) {
	switch d.Reduce {
	case isa.ReduceCount, isa.ReduceAny, isa.ReduceFirst:
		return m.flagRow(t, d.Inst.Ra), nil
	}
	return nil, m.pregSpan(t, d.Inst.Ra, n)
}
