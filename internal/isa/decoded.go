package isa

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// This file is the decode plane: a program is decoded once, up front, into
// micro-ops (Decoded) that carry everything the per-cycle paths would
// otherwise re-derive on every simulated cycle — opcode metadata, pipeline
// class, resolved ALU/compare/jump/thread/reduction function selectors, and
// the operand read/write register sets the scoreboard consults. The
// functional machine, the control-unit front end, the timing model, and
// the cycle-accurate core all execute Decoded entries; raw Inst values are
// a construction and interchange format only.
//
// Decoding also validates: undefined opcodes, register indices outside
// their file (including flag registers, whose file is half the size of the
// 4-bit destination field), and static branch/jump/spawn targets outside
// the program are rejected here, so a bad program fails at load time
// instead of trapping (or silently corrupting state) mid-run.

// ExecKind is the precomputed top-level dispatch selector of an
// instruction — what the functional machine does with it.
type ExecKind uint8

const (
	ExecNop ExecKind = iota
	ExecHalt
	ExecScalarALU   // scalar ALU, register or immediate operand B
	ExecScalarLoad  // LW
	ExecScalarStore // SW
	ExecLUI
	ExecBranch // conditional, Cond selects the comparison
	ExecJump   // J / JAL / JR, Jump selects the kind
	ExecThread // thread management, Thread selects the operation
	ExecParallel
	ExecReduction
)

// ALUOp selects the ALU function shared by the scalar datapath and the
// PEs. It replaces the per-exec opcode-to-function switch lookups.
type ALUOp uint8

const (
	ALUAdd ALUOp = iota
	ALUSub
	ALUAnd
	ALUOr
	ALUXor
	ALUSll
	ALUSrl
	ALUSra
	ALUSlt
	ALUSltu
	ALUMul
	ALUDiv
	ALUMod
)

// Cond selects a comparison, for branches and parallel compares. The U
// variants compare raw bit patterns; the rest sign-extend first.
type Cond uint8

const (
	CondEQ Cond = iota
	CondNE
	CondLT
	CondLE
	CondGT
	CondGE
	CondLTU
	CondLEU
	CondGTU
	CondGEU
)

// JumpKind distinguishes the unconditional control transfers.
type JumpKind uint8

const (
	JumpAbs  JumpKind = iota // J: absolute target in Imm
	JumpLink                 // JAL: link register written, target in Imm
	JumpReg                  // JR: target in s[ra]
)

// ThreadKind selects a thread-management operation.
type ThreadKind uint8

const (
	ThreadOpID ThreadKind = iota
	ThreadOpSpawn
	ThreadOpExit
	ThreadOpJoin
	ThreadOpSend
	ThreadOpRecv
)

// ParKind routes a parallel-class instruction to its PE-array loop.
type ParKind uint8

const (
	ParALU     ParKind = iota // parallel ALU, register/broadcast/immediate B
	ParIdx                    // PIDX
	ParImm                    // PLI
	ParLoad                   // PLW
	ParStore                  // PSW
	ParCompare                // flag := compare, Cond selects the comparison
	ParFlag                   // flag logic, Flag selects the function
)

// FlagFn selects a flag-logic function.
type FlagFn uint8

const (
	FlagAnd FlagFn = iota
	FlagOr
	FlagXor
	FlagAndNot
	FlagNot
	FlagMov
	FlagSet
	FlagClr
)

// ReduceKind routes a reduction to its network unit.
type ReduceKind uint8

const (
	ReduceOr ReduceKind = iota
	ReduceAnd
	ReduceMaxS
	ReduceMinS
	ReduceMaxU
	ReduceMinU
	ReduceSum
	ReduceCount
	ReduceAny
	ReduceFirst

	numReduceKinds
)

// NumReduceKinds sizes per-reduction lookup tables in the execution
// engines.
const NumReduceKinds = int(numReduceKinds)

// Decoded is one pre-decoded micro-op. The selector fields (ALU, Cond,
// Jump, Thread, Par, Flag, Reduce) are meaningful only under the Kind that
// consults them. Decoded values are immutable once built; consumers hold
// pointers into a DecodedProgram's backing slice.
type Decoded struct {
	Inst Inst  // the canonical instruction (operand fields, trace rendering)
	Info *Info // opcode metadata, pointing into the static table

	Kind  ExecKind
	Class Class // copy of Info.Class for switch-free timing dispatch

	ALU    ALUOp
	Cond   Cond
	Jump   JumpKind
	Thread ThreadKind
	Par    ParKind
	Flag   FlagFn
	Reduce ReduceKind

	// ImmB: operand B of an ALU-kind op is the immediate, not a register
	// (FormatI / FormatPI immediate forms).
	ImmB bool

	// Precomputed register usage for the scoreboard: the registers this
	// micro-op reads (Reads[:NumReads], including the gating mask flag
	// when it is not f0) and the register it writes, if any.
	NumReads uint8
	HasWrite bool
	Reads    [4]RegRef
	Write    RegRef
}

// ErrInvalidProgram is the sentinel wrapped by every program-validation
// failure, so load-time rejection can be distinguished from architectural
// traps with errors.Is.
var ErrInvalidProgram = errors.New("invalid program")

// ProgramError reports a program that failed decode-time validation.
type ProgramError struct {
	PC   int // word address of the offending instruction; -1 if unknown
	Inst Inst
	Msg  string
}

func (e *ProgramError) Error() string {
	if e.PC < 0 {
		return fmt.Sprintf("isa: invalid program: %s: %s", e.Inst, e.Msg)
	}
	return fmt.Sprintf("isa: invalid program: pc %d (%s): %s", e.PC, e.Inst, e.Msg)
}

func (e *ProgramError) Unwrap() error { return ErrInvalidProgram }

// templates maps each opcode to its selector fields, built once. decode
// stamps a template with the instruction's operands.
var templates = func() [numOps]Decoded {
	var tab [numOps]Decoded
	set := func(op Op, d Decoded) {
		d.Info = &infos[op]
		d.Class = infos[op].Class
		tab[op] = d
	}
	set(NOP, Decoded{Kind: ExecNop})
	set(HALT, Decoded{Kind: ExecHalt})

	alu := map[Op]ALUOp{
		ADD: ALUAdd, SUB: ALUSub, AND: ALUAnd, OR: ALUOr, XOR: ALUXor,
		SLL: ALUSll, SRL: ALUSrl, SRA: ALUSra, SLT: ALUSlt, SLTU: ALUSltu,
		MUL: ALUMul, DIV: ALUDiv, MOD: ALUMod,
	}
	for op, fn := range alu {
		set(op, Decoded{Kind: ExecScalarALU, ALU: fn})
	}
	aluImm := map[Op]ALUOp{
		ADDI: ALUAdd, ANDI: ALUAnd, ORI: ALUOr, XORI: ALUXor,
		SLTI: ALUSlt, SLLI: ALUSll, SRLI: ALUSrl, SRAI: ALUSra,
	}
	for op, fn := range aluImm {
		set(op, Decoded{Kind: ExecScalarALU, ALU: fn, ImmB: true})
	}
	set(LUI, Decoded{Kind: ExecLUI})
	set(LW, Decoded{Kind: ExecScalarLoad})
	set(SW, Decoded{Kind: ExecScalarStore})

	branches := map[Op]Cond{
		BEQ: CondEQ, BNE: CondNE, BLT: CondLT, BGE: CondGE,
		BLTU: CondLTU, BGEU: CondGEU,
	}
	for op, c := range branches {
		set(op, Decoded{Kind: ExecBranch, Cond: c})
	}
	set(J, Decoded{Kind: ExecJump, Jump: JumpAbs})
	set(JAL, Decoded{Kind: ExecJump, Jump: JumpLink})
	set(JR, Decoded{Kind: ExecJump, Jump: JumpReg})

	palu := map[Op]ALUOp{
		PADD: ALUAdd, PSUB: ALUSub, PAND: ALUAnd, POR: ALUOr, PXOR: ALUXor,
		PSLL: ALUSll, PSRL: ALUSrl, PSRA: ALUSra,
		PMUL: ALUMul, PDIV: ALUDiv, PMOD: ALUMod,
	}
	for op, fn := range palu {
		set(op, Decoded{Kind: ExecParallel, Par: ParALU, ALU: fn})
	}
	paluImm := map[Op]ALUOp{
		PADDI: ALUAdd, PANDI: ALUAnd, PORI: ALUOr, PXORI: ALUXor,
		PSLLI: ALUSll, PSRLI: ALUSrl, PSRAI: ALUSra,
	}
	for op, fn := range paluImm {
		set(op, Decoded{Kind: ExecParallel, Par: ParALU, ALU: fn, ImmB: true})
	}
	set(PLI, Decoded{Kind: ExecParallel, Par: ParImm})
	set(PLW, Decoded{Kind: ExecParallel, Par: ParLoad})
	set(PSW, Decoded{Kind: ExecParallel, Par: ParStore})
	set(PIDX, Decoded{Kind: ExecParallel, Par: ParIdx})

	compares := map[Op]Cond{
		PCEQ: CondEQ, PCNE: CondNE, PCLT: CondLT, PCLE: CondLE,
		PCGT: CondGT, PCGE: CondGE, PCLTU: CondLTU, PCLEU: CondLEU,
		PCGTU: CondGTU, PCGEU: CondGEU,
	}
	for op, c := range compares {
		set(op, Decoded{Kind: ExecParallel, Par: ParCompare, Cond: c})
	}
	flags := map[Op]FlagFn{
		FAND: FlagAnd, FOR: FlagOr, FXOR: FlagXor, FANDN: FlagAndNot,
		FNOT: FlagNot, FMOV: FlagMov, FSET: FlagSet, FCLR: FlagClr,
	}
	for op, fn := range flags {
		set(op, Decoded{Kind: ExecParallel, Par: ParFlag, Flag: fn})
	}

	reductions := map[Op]ReduceKind{
		ROR: ReduceOr, RAND: ReduceAnd, RMAX: ReduceMaxS, RMIN: ReduceMinS,
		RMAXU: ReduceMaxU, RMINU: ReduceMinU, RSUM: ReduceSum,
		RCOUNT: ReduceCount, RANY: ReduceAny, RFIRST: ReduceFirst,
	}
	for op, k := range reductions {
		set(op, Decoded{Kind: ExecReduction, Reduce: k})
	}

	threadOps := map[Op]ThreadKind{
		TID: ThreadOpID, TSPAWN: ThreadOpSpawn, TEXIT: ThreadOpExit,
		TJOIN: ThreadOpJoin, TSEND: ThreadOpSend, TRECV: ThreadOpRecv,
	}
	for op, k := range threadOps {
		set(op, Decoded{Kind: ExecThread, Thread: k})
	}
	return tab
}()

// regFileSize returns the number of registers in an operand's file.
func regFileSize(kind RegKind) uint8 {
	switch kind {
	case KindScalar:
		return NumScalarRegs
	case KindParallel:
		return NumParallelRegs
	case KindFlag:
		return NumFlagRegs
	}
	return 0
}

// DecodeInst decodes one instruction: selector classification, operand
// read/write set computation, and register-range validation. The micro-op
// holds the canonical instruction, so every field its opcode does not use
// is zero (a flag field names f0, a register field s0 or p0). Static
// control-flow targets need the surrounding program and are checked by
// DecodeProgram only. The fast path allocates nothing.
func DecodeInst(in Inst) (Decoded, error) {
	if !Valid(in.Op) {
		return Decoded{}, &ProgramError{PC: -1, Inst: in, Msg: fmt.Sprintf("undefined opcode %d", uint8(in.Op))}
	}
	in = in.Canonical()
	d := templates[in.Op]
	d.Inst = in

	// Precompute the scoreboard's view. Reads fills at most 3 entries
	// (two operands plus the gating mask flag), so the fixed array never
	// reallocates.
	var buf [4]RegRef
	rs := in.Reads(buf[:0])
	d.NumReads = uint8(copy(d.Reads[:], rs))
	if w, ok := in.Writes(); ok {
		d.Write, d.HasWrite = w, true
	}

	// Validate every register the instruction actually uses against its
	// file size. This closes the flag-file hole: a 4-bit destination
	// field can name f8..f15, which the 8-entry flag file does not have.
	for i := uint8(0); i < d.NumReads; i++ {
		r := d.Reads[i]
		if r.Idx >= regFileSize(r.Kind) {
			return Decoded{}, &ProgramError{PC: -1, Inst: in,
				Msg: fmt.Sprintf("%s register index %d out of range [0, %d)", r.Kind, r.Idx, regFileSize(r.Kind))}
		}
	}
	if d.HasWrite && d.Write.Idx >= regFileSize(d.Write.Kind) {
		return Decoded{}, &ProgramError{PC: -1, Inst: in,
			Msg: fmt.Sprintf("%s destination index %d out of range [0, %d)", d.Write.Kind, d.Write.Idx, regFileSize(d.Write.Kind))}
	}
	if d.Info.ReadsMask && in.Mask >= NumFlagRegs {
		return Decoded{}, &ProgramError{PC: -1, Inst: in,
			Msg: fmt.Sprintf("mask flag index %d out of range [0, %d)", in.Mask, NumFlagRegs)}
	}
	return d, nil
}

// DecodedProgram is a program in decoded micro-op form. It is immutable
// once built; any number of machines may execute one DecodedProgram
// concurrently (the serving stack's program cache relies on this).
type DecodedProgram struct {
	insts []Inst
	ops   []Decoded

	// Block plane (blocks.go): the block-compiled form, built lazily and
	// at most once, shared by every consumer of this program.
	blocksOnce  sync.Once
	blocksBuilt atomic.Bool
	blocks      *BlockProgram
}

// DecodeProgram decodes and validates a whole program: every instruction
// is decoded (see DecodeInst) and every static control-flow target —
// branch and jump immediates, TSPAWN start addresses — must land inside
// the program (branches and jumps may also target the address one past the
// end, mirroring the machine's PC bound). Errors wrap ErrInvalidProgram.
func DecodeProgram(prog []Inst) (*DecodedProgram, error) {
	dp := &DecodedProgram{insts: prog, ops: make([]Decoded, len(prog))}
	n := len(prog)
	for pc, in := range prog {
		d, err := DecodeInst(in)
		if err != nil {
			if pe, ok := err.(*ProgramError); ok {
				pe.PC = pc
			}
			return nil, err
		}
		switch {
		case d.Kind == ExecBranch, d.Kind == ExecJump && d.Jump != JumpReg:
			if t := int(in.Imm); t < 0 || t > n {
				return nil, &ProgramError{PC: pc, Inst: in,
					Msg: fmt.Sprintf("control target %d out of program bounds [0, %d]", t, n)}
			}
		case d.Kind == ExecThread && d.Thread == ThreadOpSpawn:
			if t := int(in.Imm); t < 0 || t >= n {
				return nil, &ProgramError{PC: pc, Inst: in,
					Msg: fmt.Sprintf("spawn target %d out of program bounds [0, %d)", t, n)}
			}
		}
		dp.ops[pc] = d
	}
	return dp, nil
}

// Len returns the number of instructions.
func (dp *DecodedProgram) Len() int { return len(dp.ops) }

// Insts returns the program in raw instruction form. Callers must not
// mutate it.
func (dp *DecodedProgram) Insts() []Inst { return dp.insts }

// At returns the micro-op at word address pc. The pointer aliases the
// program's backing store and stays valid for the program's lifetime.
func (dp *DecodedProgram) At(pc int) *Decoded { return &dp.ops[pc] }
