package isa

// This file is the block plane: one tier above the decode plane. Where
// decode turns each instruction into a self-describing micro-op, the block
// builder partitions the decoded program into straight-line basic blocks
// and fuses hot associative idioms inside them into superinstructions, so
// a dispatcher can issue a whole run of micro-ops from one lookup instead
// of one fetch/schedule/issue round per op.
//
// Leader/terminator rules (DESIGN.md section 13):
//
//   - leaders: pc 0, the static targets of branches and jumps, TSPAWN
//     start addresses, and the instruction after any terminator;
//   - terminators: control flow (branch, jump, halt) and every thread-
//     management op (spawn, exit, join, and the mailbox ops, which can
//     block or redirect the front end). Terminators are never inside a
//     block; the per-cycle path dispatches them.
//
// Everything else — including potentially-trapping loads/stores and
// reductions — lives inside blocks as singleton block-ops; the dispatcher
// falls back to exact single-step semantics when one traps. Fusion is
// stricter: only trap-free, fixed-latency parallel ops (ALU, index,
// immediate, compare, flag logic) may share a fused op, and a reduction
// may only be its final constituent (its b+r result latency means nothing
// after it in the same op could issue back-to-back).
//
// The fusion legality argument is class-based, valid for every broadcast/
// reduction latency (b, r): a fusible parallel producer's result is
// forwardable to a PE-side consumer exactly one cycle after issue
// (ResultReady t+b+3, MinIssueForOperand readyAbs-b-2 = t+1), so any
// dependence chain among constituents sustains back-to-back issue. The
// same holds for write-after-write. Ops that break the argument — loads
// (extra memory cycle), mul/div (unit latency and structural reservation),
// scalar writers — never enter a fused op.

// FuseKind labels the idiom a fused op was recognized as. The label is
// catalog metadata (stats, design docs); execution kernels key on the
// constituent shapes themselves.
type FuseKind uint8

const (
	// FuseNone: a singleton block-op (one micro-op).
	FuseNone FuseKind = iota
	// FuseCompareFlag: broadcast+compare feeding flag logic (the
	// associative search step: PCxx then Fxxx).
	FuseCompareFlag
	// FuseCompareFold: a compare (possibly via flag logic) feeding a
	// reduction tail (the associative search-and-fold idiom).
	FuseCompareFold
	// FuseALURun: a run of fixed-latency parallel ALU/index/immediate/
	// flag ops, optionally with a reduction tail.
	FuseALURun
)

// MaxFuse bounds the number of constituents in one fused op. Four matches
// the default per-thread instruction buffer depth: a wider op could never
// have all constituents buffered at dispatch under the default front end.
const MaxFuse = 4

// BlockOp is one dispatch unit inside a block: a single micro-op
// (Fuse == FuseNone) or a fused superinstruction of 2..MaxFuse
// consecutive micro-ops.
type BlockOp struct {
	PC   int        // word address of the first constituent
	Ops  []*Decoded // constituents in program order
	Fuse FuseKind
}

// Block is a straight-line run of block-ops: no control flow in, out, or
// across it except at its boundaries.
type Block struct {
	Start int // pc of the first constituent
	N     int // number of micro-ops covered: pcs [Start, Start+N)
	Ops   []BlockOp
}

// blockLoc locates a pc inside the block structure: the containing block,
// the block-op index, and the constituent offset within a fused op
// (sub > 0 means pc is mid-superinstruction). block < 0 means the pc is a
// terminator, outside every block.
type blockLoc struct {
	block int32
	op    int16
	sub   int16
}

// BlockProgram is the block-compiled form of a DecodedProgram. It is
// immutable once built and shared by every machine executing the program,
// exactly like the decoded form it annotates.
type BlockProgram struct {
	blocks []Block
	loc    []blockLoc
}

// Lookup resolves a pc to its containing block, block-op index, and
// constituent offset. ok is false when pc is outside every block (a
// terminator or out of range): the caller must single-step.
func (bp *BlockProgram) Lookup(pc int) (b *Block, op, sub int, ok bool) {
	if pc < 0 || pc >= len(bp.loc) {
		return nil, 0, 0, false
	}
	l := bp.loc[pc]
	if l.block < 0 {
		return nil, 0, 0, false
	}
	return &bp.blocks[l.block], int(l.op), int(l.sub), true
}

// Blocks returns the block list (for introspection and tests).
func (bp *BlockProgram) Blocks() []Block { return bp.blocks }

// terminator reports whether a micro-op ends a basic block: control flow
// and thread management are dispatched by the per-cycle path only.
func terminator(d *Decoded) bool {
	switch d.Kind {
	case ExecBranch, ExecJump, ExecHalt, ExecThread:
		return true
	}
	return false
}

// fusible reports whether a micro-op may be a non-final constituent of a
// fused op: trap-free, fixed-latency, PE-side result one cycle after
// issue. Loads/stores (trap surfaces), mul/div (unit latency), and all
// scalar-writing ops stay out.
func fusible(d *Decoded) bool {
	if d.Kind != ExecParallel || d.Info.IsMul || d.Info.IsDiv {
		return false
	}
	switch d.Par {
	case ParALU, ParIdx, ParImm, ParCompare, ParFlag:
		return true
	}
	return false
}

// BuildBlocks partitions a decoded program into basic blocks and runs the
// fusion pass over each. The result is deterministic and depends only on
// the program.
func BuildBlocks(dp *DecodedProgram) *BlockProgram {
	n := dp.Len()
	bp := &BlockProgram{loc: make([]blockLoc, n)}
	for i := range bp.loc {
		bp.loc[i] = blockLoc{block: -1}
	}
	if n == 0 {
		return bp
	}

	// Pass 1: leaders. pc 0, static control targets, spawn targets, and
	// every fall-through successor of a terminator.
	leader := make([]bool, n)
	leader[0] = true
	for pc := 0; pc < n; pc++ {
		d := dp.At(pc)
		switch {
		case d.Kind == ExecBranch, d.Kind == ExecJump && d.Jump != JumpReg:
			if t := int(d.Inst.Imm); t >= 0 && t < n {
				leader[t] = true
			}
		case d.Kind == ExecThread && d.Thread == ThreadOpSpawn:
			if t := int(d.Inst.Imm); t >= 0 && t < n {
				leader[t] = true
			}
		}
		if terminator(d) && pc+1 < n {
			leader[pc+1] = true
		}
	}

	// Pass 2: partition into blocks of non-terminator ops, breaking at
	// leaders, then fuse within each block.
	for pc := 0; pc < n; {
		if terminator(dp.At(pc)) {
			pc++
			continue
		}
		start := pc
		for pc < n && !terminator(dp.At(pc)) && (pc == start || !leader[pc]) {
			pc++
		}
		bp.addBlock(dp, start, pc)
	}
	return bp
}

// addBlock fuses and records the block covering pcs [start, end).
func (bp *BlockProgram) addBlock(dp *DecodedProgram, start, end int) {
	blk := Block{Start: start, N: end - start}
	id := int32(len(bp.blocks))

	record := func(pc int, ops []*Decoded, fuse FuseKind) {
		opIdx := int16(len(blk.Ops))
		blk.Ops = append(blk.Ops, BlockOp{PC: pc, Ops: ops, Fuse: fuse})
		for s := range ops {
			bp.loc[pc+s] = blockLoc{block: id, op: opIdx, sub: int16(s)}
		}
	}

	for pc := start; pc < end; {
		d := dp.At(pc)
		if !fusible(d) {
			record(pc, []*Decoded{d}, FuseNone)
			pc++
			continue
		}
		// Greedy run of fusible ops, optionally closed by a reduction.
		group := []*Decoded{d}
		next := pc + 1
		for next < end && len(group) < MaxFuse && fusible(dp.At(next)) {
			group = append(group, dp.At(next))
			next++
		}
		if next < end && len(group) < MaxFuse && dp.At(next).Kind == ExecReduction {
			group = append(group, dp.At(next))
			next++
		}
		if len(group) == 1 {
			record(pc, group, FuseNone)
		} else {
			record(pc, group, classifyFuse(group))
		}
		pc = next
	}

	bp.blocks = append(bp.blocks, blk)
}

// classifyFuse names the idiom of a fused group.
func classifyFuse(group []*Decoded) FuseKind {
	last := group[len(group)-1]
	if last.Kind == ExecReduction {
		for _, d := range group[:len(group)-1] {
			if d.Par == ParCompare {
				return FuseCompareFold
			}
		}
		return FuseALURun
	}
	if len(group) == 2 && group[0].Par == ParCompare && group[1].Par == ParFlag {
		return FuseCompareFlag
	}
	return FuseALURun
}

// Blocks returns the program's block-compiled form, building it on first
// use. The build is synchronized and happens at most once per program, so
// the artifact is shared by every machine (and every cached copy) of the
// program — this is what progcache's per-result blockCacheHit reports.
func (dp *DecodedProgram) Blocks() *BlockProgram {
	dp.blocksOnce.Do(func() {
		dp.blocks = BuildBlocks(dp)
		dp.blocksBuilt.Store(true)
	})
	return dp.blocks
}

// BlocksBuilt reports whether the block-compiled form has already been
// built (without building it). The serving tier uses this to report
// whether a cached program arrived block-compiled.
func (dp *DecodedProgram) BlocksBuilt() bool { return dp.blocksBuilt.Load() }
