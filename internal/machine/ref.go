package machine

// This file retains the pre-decode-plane interpreter as the oracle: ExecRef
// re-derives everything from the raw isa.Inst on every call — Info lookups,
// per-opcode switches, the scalarALUOp/parallelALUOp translations. The
// differential harness (internal/core/oracle_test.go) steps it to check
// every execution tier, decoded execution included, on randomized programs.
// It always runs the PE array serially, regardless of the configured host
// engine, and nothing in the simulator proper calls it.

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/network"
)

// scalarALUOp maps a scalar ALU opcode to its ALU function — the reference
// path's per-exec translation that the decode plane precomputes.
func scalarALUOp(op isa.Op) isa.ALUOp {
	switch op {
	case isa.ADD, isa.ADDI:
		return isa.ALUAdd
	case isa.SUB:
		return isa.ALUSub
	case isa.AND, isa.ANDI:
		return isa.ALUAnd
	case isa.OR, isa.ORI:
		return isa.ALUOr
	case isa.XOR, isa.XORI:
		return isa.ALUXor
	case isa.SLL, isa.SLLI:
		return isa.ALUSll
	case isa.SRL, isa.SRLI:
		return isa.ALUSrl
	case isa.SRA, isa.SRAI:
		return isa.ALUSra
	case isa.SLT, isa.SLTI:
		return isa.ALUSlt
	case isa.SLTU:
		return isa.ALUSltu
	case isa.MUL:
		return isa.ALUMul
	case isa.DIV:
		return isa.ALUDiv
	case isa.MOD:
		return isa.ALUMod
	}
	panic(fmt.Sprintf("machine: %v is not a scalar ALU op", op))
}

// parallelALUOp is scalarALUOp's parallel-class twin.
func parallelALUOp(op isa.Op) isa.ALUOp {
	switch op {
	case isa.PADD, isa.PADDI:
		return isa.ALUAdd
	case isa.PSUB:
		return isa.ALUSub
	case isa.PAND, isa.PANDI:
		return isa.ALUAnd
	case isa.POR, isa.PORI:
		return isa.ALUOr
	case isa.PXOR, isa.PXORI:
		return isa.ALUXor
	case isa.PSLL, isa.PSLLI:
		return isa.ALUSll
	case isa.PSRL, isa.PSRLI:
		return isa.ALUSrl
	case isa.PSRA, isa.PSRAI:
		return isa.ALUSra
	case isa.PMUL:
		return isa.ALUMul
	case isa.PDIV:
		return isa.ALUDiv
	case isa.PMOD:
		return isa.ALUMod
	}
	panic(fmt.Sprintf("machine: %v is not a parallel ALU op", op))
}

// ExecRef executes one instruction for thread t from first principles:
// metadata re-derived per call, dispatch by opcode, serial PE loops. Architectural effects and Outcome are required to be
// bit-identical to ExecDecoded.
func (m *Machine) ExecRef(t int, in isa.Inst) (Outcome, error) {
	th := &m.threads[t]
	out := Outcome{NextPC: th.pc + 1, Spawned: -1}
	info := in.Info()

	switch {
	case in.Op == isa.NOP:
	case in.Op == isa.HALT:
		m.halted = true
		out.Halt = true

	case info.IsBranch:
		taken, err := m.refBranchTaken(t, in)
		if err != nil {
			return out, err
		}
		if taken {
			out.NextPC = int(in.Imm)
			out.Redirect = true
		}

	case info.IsJump:
		switch in.Op {
		case isa.J:
			out.NextPC = int(in.Imm)
		case isa.JAL:
			m.SetScalar(t, isa.LinkReg, int64(th.pc+1))
			out.NextPC = int(in.Imm)
		case isa.JR:
			out.NextPC = int(m.Scalar(t, in.Ra))
		}
		out.Redirect = true

	case info.IsThread:
		if err := m.refExecThreadOp(t, in, &out); err != nil {
			return out, err
		}

	case in.Op == isa.LW:
		addr := int(m.signed(m.Scalar(t, in.Ra))) + int(in.Imm)
		if addr < 0 || addr >= m.cfg.ScalarMemWords {
			return out, m.trap(t, in, "scalar load address %d out of [0, %d)", addr, m.cfg.ScalarMemWords)
		}
		m.SetScalar(t, in.Rd, m.scalarMem[addr])

	case in.Op == isa.SW:
		addr := int(m.signed(m.Scalar(t, in.Ra))) + int(in.Imm)
		if addr < 0 || addr >= m.cfg.ScalarMemWords {
			return out, m.trap(t, in, "scalar store address %d out of [0, %d)", addr, m.cfg.ScalarMemWords)
		}
		m.scalarMem[addr] = m.Scalar(t, in.Rd)
		m.scalarHi = max(m.scalarHi, addr+1)

	case in.Op == isa.LUI:
		m.SetScalar(t, in.Rd, int64(uint16(in.Imm))<<16)

	case info.Class == isa.ClassScalar:
		a := m.Scalar(t, in.Ra)
		var b int64
		if info.Format == isa.FormatI {
			b = m.mask(int64(in.Imm))
		} else {
			b = m.Scalar(t, in.Rb)
		}
		m.SetScalar(t, in.Rd, m.refALU(scalarALUOp(in.Op), a, b))

	case info.Class == isa.ClassParallel:
		if err := m.refExecParallel(t, in); err != nil {
			return out, err
		}

	case info.Class == isa.ClassReduction:
		m.refExecReduction(t, in)

	default:
		return out, m.trap(t, in, "unimplemented opcode")
	}

	th.pc = out.NextPC
	if !out.Halt && !out.Exited {
		if out.NextPC < 0 || out.NextPC > len(m.prog) {
			return out, m.trap(t, in, "next pc %d out of program bounds [0, %d]", out.NextPC, len(m.prog))
		}
	}
	return out, nil
}

func (m *Machine) refBranchTaken(t int, in isa.Inst) (bool, error) {
	a := m.Scalar(t, in.Rd)
	b := m.Scalar(t, in.Ra)
	sa, sb := m.signed(a), m.signed(b)
	switch in.Op {
	case isa.BEQ:
		return a == b, nil
	case isa.BNE:
		return a != b, nil
	case isa.BLT:
		return sa < sb, nil
	case isa.BGE:
		return sa >= sb, nil
	case isa.BLTU:
		return a < b, nil
	case isa.BGEU:
		return a >= b, nil
	}
	return false, m.trap(t, in, "not a branch")
}

func (m *Machine) refExecThreadOp(t int, in isa.Inst, out *Outcome) error {
	th := &m.threads[t]
	switch in.Op {
	case isa.TID:
		m.SetScalar(t, in.Rd, int64(t))

	case isa.TSPAWN:
		target := int(in.Imm)
		if target < 0 || target >= len(m.prog) {
			return m.trap(t, in, "spawn target %d out of program bounds", target)
		}
		spawned := -1
		for i := range m.threads {
			if m.threads[i].state == ThreadFree {
				spawned = i
				break
			}
		}
		if spawned < 0 {
			m.SetScalar(t, in.Rd, m.mask(-1))
			return nil
		}
		nt := &m.threads[spawned]
		nt.state = ThreadActive
		nt.pc = target
		nt.sregs = [isa.NumScalarRegs]int64{}
		nt.mailbox = nil
		for r := range isa.NumParallelRegs {
			clear(m.pregPlane(spawned, uint8(r)))
		}
		m.clearFlags(spawned)
		m.SetScalar(t, in.Rd, int64(spawned))
		out.Spawned = spawned

	case isa.TEXIT:
		th.state = ThreadFree
		out.Exited = true

	case isa.TJOIN:
		target := int(m.signed(m.Scalar(t, in.Ra)))
		if target < 0 || target >= m.cfg.Threads {
			return m.trap(t, in, "join on invalid thread id %d", target)
		}

	case isa.TSEND:
		target := int(m.signed(m.Scalar(t, in.Ra)))
		if target < 0 || target >= m.cfg.Threads {
			return m.trap(t, in, "send to invalid thread id %d", target)
		}
		tt := &m.threads[target]
		if len(tt.mailbox) >= m.cfg.MailboxCap {
			return m.trap(t, in, "send to full mailbox (caller must check BlockedDecoded)")
		}
		tt.mailbox = append(tt.mailbox, m.Scalar(t, in.Rb))

	case isa.TRECV:
		if len(th.mailbox) == 0 {
			return m.trap(t, in, "recv on empty mailbox (caller must check BlockedDecoded)")
		}
		v := th.mailbox[0]
		th.mailbox = th.mailbox[1:]
		m.SetScalar(t, in.Rd, v)

	default:
		return m.trap(t, in, "unimplemented thread op")
	}
	return nil
}

func (m *Machine) refExecParallel(t int, in isa.Inst) error {
	info := in.Info()
	if info.DstKind == isa.KindFlag && info.SrcAKind != isa.KindParallel {
		switch in.Op {
		case isa.FAND, isa.FOR, isa.FXOR, isa.FANDN, isa.FNOT, isa.FMOV, isa.FSET, isa.FCLR:
		default:
			return m.trap(t, in, "unimplemented flag op")
		}
	}
	trapPE, trapAddr := m.refExecParallelRange(t, in, 0, m.cfg.PEs)
	if trapPE >= 0 {
		verb := "load"
		if in.Op == isa.PSW {
			verb = "store"
		}
		return m.trap(t, in, "PE %d local %s address %d out of [0, %d)", trapPE, verb, trapAddr, m.cfg.LocalMemWords)
	}
	return nil
}

func (m *Machine) refExecParallelRange(t int, in isa.Inst, lo, hi int) (trapPE, trapAddr int) {
	trapPE, trapAddr = -1, 0
	info := in.Info()
	mk := int(in.Mask)
	rd, ra, rb := int(in.Rd), int(in.Ra), int(in.Rb)

	switch {
	case in.Op == isa.PIDX:
		if rd == 0 {
			return
		}
		for pe := lo; pe < hi; pe++ {
			if mk == 0 || m.Flag(t, pe, uint8(mk)) {
				m.pregPlane(t, uint8(rd))[pe] = m.mask(int64(pe))
			}
		}

	case in.Op == isa.PLI:
		if rd == 0 {
			return
		}
		v := m.mask(int64(in.Imm))
		for pe := lo; pe < hi; pe++ {
			if mk == 0 || m.Flag(t, pe, uint8(mk)) {
				m.pregPlane(t, uint8(rd))[pe] = v
			}
		}

	case in.Op == isa.PLW:
		lmw := m.cfg.LocalMemWords
		imm := int(in.Imm)
		for pe := lo; pe < hi; pe++ {
			if !(mk == 0 || m.Flag(t, pe, uint8(mk))) {
				continue
			}
			var av int64
			if ra != 0 {
				av = m.pregPlane(t, uint8(ra))[pe]
			}
			addr := int(m.signed(av)) + imm
			if addr < 0 || addr >= lmw {
				if trapPE < 0 {
					trapPE, trapAddr = pe, addr
				}
				continue
			}
			if rd != 0 {
				m.pregPlane(t, uint8(rd))[pe] = m.localMem[pe*lmw+addr]
			}
		}

	case in.Op == isa.PSW:
		lmw := m.cfg.LocalMemWords
		imm := int(in.Imm)
		for pe := lo; pe < hi; pe++ {
			if !(mk == 0 || m.Flag(t, pe, uint8(mk))) {
				continue
			}
			var av int64
			if ra != 0 {
				av = m.pregPlane(t, uint8(ra))[pe]
			}
			addr := int(m.signed(av)) + imm
			if addr < 0 || addr >= lmw {
				if trapPE < 0 {
					trapPE, trapAddr = pe, addr
				}
				continue
			}
			var dv int64
			if rd != 0 {
				dv = m.pregPlane(t, uint8(rd))[pe]
			}
			m.localMem[pe*lmw+addr] = dv
			m.localHi = max(m.localHi, addr+1)
		}

	case info.DstKind == isa.KindFlag && info.SrcAKind == isa.KindParallel:
		if rd == 0 {
			return
		}
		var sb int64
		if in.SB {
			sb = m.Scalar(t, in.Rb)
		}
		for pe := lo; pe < hi; pe++ {
			if !(mk == 0 || m.Flag(t, pe, uint8(mk))) {
				continue
			}
			var a, b int64
			if ra != 0 {
				a = m.pregPlane(t, uint8(ra))[pe]
			}
			if in.SB {
				b = sb
			} else if rb != 0 {
				b = m.pregPlane(t, uint8(rb))[pe]
			}
			m.SetFlag(t, pe, uint8(rd), m.refCompare(in.Op, a, b))
		}

	case info.DstKind == isa.KindFlag:
		if rd == 0 {
			return
		}
		for pe := lo; pe < hi; pe++ {
			if !(mk == 0 || m.Flag(t, pe, uint8(mk))) {
				continue
			}
			var v bool
			switch in.Op {
			case isa.FAND:
				v = m.refFlag(t, pe, ra) && m.refFlag(t, pe, rb)
			case isa.FOR:
				v = m.refFlag(t, pe, ra) || m.refFlag(t, pe, rb)
			case isa.FXOR:
				v = m.refFlag(t, pe, ra) != m.refFlag(t, pe, rb)
			case isa.FANDN:
				v = m.refFlag(t, pe, ra) && !m.refFlag(t, pe, rb)
			case isa.FNOT:
				v = !m.refFlag(t, pe, ra)
			case isa.FMOV:
				v = m.refFlag(t, pe, ra)
			case isa.FSET:
				v = true
			case isa.FCLR:
				v = false
			}
			m.SetFlag(t, pe, uint8(rd), v)
		}

	default:
		if rd == 0 {
			return
		}
		op := parallelALUOp(in.Op)
		immForm := info.Format == isa.FormatPI
		var bc int64
		if immForm {
			bc = m.mask(int64(in.Imm))
		} else if in.SB {
			bc = m.Scalar(t, in.Rb)
		}
		for pe := lo; pe < hi; pe++ {
			if !(mk == 0 || m.Flag(t, pe, uint8(mk))) {
				continue
			}
			var a, b int64
			if ra != 0 {
				a = m.pregPlane(t, uint8(ra))[pe]
			}
			if immForm || in.SB {
				b = bc
			} else if rb != 0 {
				b = m.pregPlane(t, uint8(rb))[pe]
			}
			m.pregPlane(t, uint8(rd))[pe] = m.refALU(op, a, b)
		}
	}
	return
}

func (m *Machine) refCompare(op isa.Op, a, b int64) bool {
	sa, sb := m.signed(a), m.signed(b)
	switch op {
	case isa.PCEQ:
		return a == b
	case isa.PCNE:
		return a != b
	case isa.PCLT:
		return sa < sb
	case isa.PCLE:
		return sa <= sb
	case isa.PCGT:
		return sa > sb
	case isa.PCGE:
		return sa >= sb
	case isa.PCLTU:
		return a < b
	case isa.PCLEU:
		return a <= b
	case isa.PCGTU:
		return a > b
	case isa.PCGEU:
		return a >= b
	}
	panic(fmt.Sprintf("machine: %v is not a comparison", op))
}

func (m *Machine) refExecReduction(t int, in isa.Inst) {
	p := m.cfg.PEs
	ra, mk := int(in.Ra), int(in.Mask)

	switch in.Op {
	case isa.RCOUNT, isa.RANY:
		var n int64
		for pe := 0; pe < p; pe++ {
			if (ra == 0 || m.Flag(t, pe, uint8(ra))) && (mk == 0 || m.Flag(t, pe, uint8(mk))) {
				n++
			}
		}
		if in.Op == isa.RCOUNT {
			m.SetScalar(t, in.Rd, m.mask(n))
		} else {
			v := int64(0)
			if n > 0 {
				v = 1
			}
			m.SetScalar(t, in.Rd, v)
		}

	case isa.RFIRST:
		winner := p
		for pe := 0; pe < p; pe++ {
			if (ra == 0 || m.Flag(t, pe, uint8(ra))) && (mk == 0 || m.Flag(t, pe, uint8(mk))) {
				winner = pe
				break
			}
		}
		if rd := int(in.Rd); rd != 0 {
			for pe := 0; pe < p; pe++ {
				m.SetFlag(t, pe, uint8(rd), pe == winner)
			}
		}

	default:
		m.refReduceLeaves(t, in)
		root := network.FoldInPlace(m.leafBuf[:p], m.refCombineFor(in.Op))
		if in.Op == isa.RAND {
			root = ^root & (int64(1)<<m.cfg.Width - 1)
		}
		m.SetScalar(t, in.Rd, m.mask(root))
	}
}

func (m *Machine) refReduceLeaves(t int, in isa.Inst) {
	ra, mk := int(in.Ra), int(in.Mask)
	w := m.cfg.Width
	ones := int64(1)<<w - 1

	var kind int
	var unit isa.ReduceKind
	switch in.Op {
	case isa.ROR:
		kind, unit = leafRaw, isa.ReduceOr
	case isa.RAND:
		kind, unit = leafInverted, isa.ReduceAnd
	case isa.RMAX:
		kind, unit = leafSigned, isa.ReduceMaxS
	case isa.RMIN:
		kind, unit = leafSigned, isa.ReduceMinS
	case isa.RMAXU:
		kind, unit = leafRaw, isa.ReduceMaxU
	case isa.RMINU:
		kind, unit = leafRaw, isa.ReduceMinU
	case isa.RSUM:
		kind, unit = leafSigned, isa.ReduceSum
	default:
		panic(fmt.Sprintf("machine: %v is not a reduction", in.Op))
	}
	ident := network.Identity(unit, w)

	for pe := 0; pe < m.cfg.PEs; pe++ {
		if !(mk == 0 || m.Flag(t, pe, uint8(mk))) {
			m.leafBuf[pe] = ident
			continue
		}
		var v int64
		if ra != 0 {
			v = m.pregPlane(t, uint8(ra))[pe]
		}
		switch kind {
		case leafSigned:
			v = m.signed(v)
		case leafInverted:
			v = ^v & ones
		}
		m.leafBuf[pe] = v
	}
}

func (m *Machine) refCombineFor(op isa.Op) network.CombineFunc {
	switch op {
	case isa.RAND, isa.ROR:
		return network.CombineOr
	case isa.RMAX, isa.RMAXU:
		return network.CombineMax
	case isa.RMIN, isa.RMINU:
		return network.CombineMin
	case isa.RSUM:
		return m.satAdd
	}
	panic(fmt.Sprintf("machine: %v is not a value reduction", op))
}

// refALU computes one ALU operation on width-masked bit patterns, written
// independently of the PE kernels (kernels.go) so the oracle checks them.
// Division by zero follows the RISC-V convention: quotient is all ones,
// remainder is the dividend. There is no divide trap.
func (m *Machine) refALU(op isa.ALUOp, a, b int64) int64 {
	sa, sb := m.signed(a), m.signed(b)
	shift := uint(b) % 64
	switch op {
	case isa.ALUAdd:
		return m.mask(a + b)
	case isa.ALUSub:
		return m.mask(a - b)
	case isa.ALUAnd:
		return a & b
	case isa.ALUOr:
		return a | b
	case isa.ALUXor:
		return a ^ b
	case isa.ALUSll:
		if shift >= m.cfg.Width {
			return 0
		}
		return m.mask(a << shift)
	case isa.ALUSrl:
		if shift >= m.cfg.Width {
			return 0
		}
		return a >> shift
	case isa.ALUSra:
		if shift >= m.cfg.Width {
			shift = m.cfg.Width - 1
		}
		return m.mask(sa >> shift)
	case isa.ALUSlt:
		if sa < sb {
			return 1
		}
		return 0
	case isa.ALUSltu:
		if a < b {
			return 1
		}
		return 0
	case isa.ALUMul:
		return m.mask(sa * sb)
	case isa.ALUDiv:
		if sb == 0 {
			return m.mask(-1)
		}
		return m.mask(sa / sb)
	case isa.ALUMod:
		if sb == 0 {
			return m.mask(sa)
		}
		return m.mask(sa % sb)
	}
	panic(fmt.Sprintf("machine: unknown alu op %d", op))
}

// refFlag reads flag r of PE pe in thread t (f0 hardwired to one) through
// the exported accessor, like every flag access of the reference.
func (m *Machine) refFlag(t, pe, r int) bool { return m.Flag(t, pe, uint8(r)) }

// leaf transform kinds for refReduceLeaves.
const (
	leafRaw = iota
	leafSigned
	leafInverted
)
