package machine

import (
	"testing"

	"repro/internal/isa"
)

// opCase is one golden-semantics scenario for a single opcode.
type opCase struct {
	op    isa.Op
	name  string
	width uint // 0 = 8
	setup func(m *Machine)
	inst  isa.Inst
	check func(t *testing.T, m *Machine, out Outcome)
}

// opMachine builds a 4-PE machine with a 4-NOP program so PC bookkeeping
// works for single-instruction execution.
func opMachine(t *testing.T, width uint) *Machine {
	t.Helper()
	if width == 0 {
		width = 8
	}
	m, err := New(Config{PEs: 4, Threads: 4, Width: width, LocalMemWords: 16}, make([]isa.Inst, 8))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func wantScalar(r uint8, v int64) func(*testing.T, *Machine, Outcome) {
	return func(t *testing.T, m *Machine, _ Outcome) {
		if got := m.Scalar(0, r); got != v {
			t.Errorf("s%d = %d, want %d", r, got, v)
		}
	}
}

func wantParallelAll(r uint8, f func(pe int) int64) func(*testing.T, *Machine, Outcome) {
	return func(t *testing.T, m *Machine, _ Outcome) {
		for pe := 0; pe < 4; pe++ {
			if got := m.Parallel(0, pe, r); got != f(pe) {
				t.Errorf("PE %d p%d = %d, want %d", pe, r, got, f(pe))
			}
		}
	}
}

func wantFlagAll(r uint8, f func(pe int) bool) func(*testing.T, *Machine, Outcome) {
	return func(t *testing.T, m *Machine, _ Outcome) {
		for pe := 0; pe < 4; pe++ {
			if got := m.Flag(0, pe, r); got != f(pe) {
				t.Errorf("PE %d f%d = %v, want %v", pe, r, got, f(pe))
			}
		}
	}
}

// setupScalars presets s1=a, s2=b.
func setupScalars(a, b int64) func(*Machine) {
	return func(m *Machine) {
		m.SetScalar(0, 1, a)
		m.SetScalar(0, 2, b)
	}
}

// setupParallel presets p1[pe]=pe values from va, p2[pe] from vb.
func setupParallel(va, vb [4]int64) func(*Machine) {
	return func(m *Machine) {
		for pe := 0; pe < 4; pe++ {
			m.SetParallel(0, pe, 1, va[pe])
			m.SetParallel(0, pe, 2, vb[pe])
		}
	}
}

// goldenCases covers every opcode in the ISA with at least one scenario.
func goldenCases() []opCase {
	rr := func(op isa.Op) isa.Inst { return isa.Inst{Op: op, Rd: 3, Ra: 1, Rb: 2} }
	ri := func(op isa.Op, imm int32) isa.Inst { return isa.Inst{Op: op, Rd: 3, Ra: 1, Imm: imm} }
	pr := func(op isa.Op) isa.Inst { return isa.Inst{Op: op, Rd: 3, Ra: 1, Rb: 2} }

	return []opCase{
		{op: isa.NOP, name: "nop", inst: isa.Inst{Op: isa.NOP},
			check: func(t *testing.T, m *Machine, out Outcome) {
				if out.NextPC != 1 || out.Redirect || out.Halt {
					t.Errorf("outcome = %+v", out)
				}
			}},
		{op: isa.HALT, name: "halt", inst: isa.Inst{Op: isa.HALT},
			check: func(t *testing.T, m *Machine, out Outcome) {
				if !out.Halt || !m.Halted() {
					t.Error("halt did not halt")
				}
			}},

		{op: isa.ADD, name: "add", setup: setupScalars(200, 100), inst: rr(isa.ADD), check: wantScalar(3, 44)}, // 300 mod 256
		{op: isa.SUB, name: "sub", setup: setupScalars(5, 9), inst: rr(isa.SUB), check: wantScalar(3, 252)},    // -4
		{op: isa.AND, name: "and", setup: setupScalars(0b1100, 0b1010), inst: rr(isa.AND), check: wantScalar(3, 0b1000)},
		{op: isa.OR, name: "or", setup: setupScalars(0b1100, 0b1010), inst: rr(isa.OR), check: wantScalar(3, 0b1110)},
		{op: isa.XOR, name: "xor", setup: setupScalars(0b1100, 0b1010), inst: rr(isa.XOR), check: wantScalar(3, 0b0110)},
		{op: isa.SLL, name: "sll", setup: setupScalars(3, 2), inst: rr(isa.SLL), check: wantScalar(3, 12)},
		{op: isa.SRL, name: "srl", setup: setupScalars(0x80, 3), inst: rr(isa.SRL), check: wantScalar(3, 0x10)},
		{op: isa.SRA, name: "sra", setup: setupScalars(0x80, 3), inst: rr(isa.SRA), check: wantScalar(3, 0xF0)}, // sign fill
		{op: isa.SLT, name: "slt", setup: setupScalars(0xFF, 1), inst: rr(isa.SLT), check: wantScalar(3, 1)},    // -1 < 1
		{op: isa.SLTU, name: "sltu", setup: setupScalars(0xFF, 1), inst: rr(isa.SLTU), check: wantScalar(3, 0)}, // 255 > 1
		{op: isa.MUL, name: "mul", setup: setupScalars(7, 6), inst: rr(isa.MUL), check: wantScalar(3, 42)},
		{op: isa.DIV, name: "div", setup: setupScalars(45, 7), inst: rr(isa.DIV), check: wantScalar(3, 6)},
		{op: isa.MOD, name: "mod", setup: setupScalars(45, 7), inst: rr(isa.MOD), check: wantScalar(3, 3)},

		{op: isa.ADDI, name: "addi", setup: setupScalars(10, 0), inst: ri(isa.ADDI, -3), check: wantScalar(3, 7)},
		{op: isa.ANDI, name: "andi", setup: setupScalars(0xFF, 0), inst: ri(isa.ANDI, 0x0F), check: wantScalar(3, 0x0F)},
		{op: isa.ORI, name: "ori", setup: setupScalars(0x10, 0), inst: ri(isa.ORI, 0x01), check: wantScalar(3, 0x11)},
		{op: isa.XORI, name: "xori", setup: setupScalars(0xFF, 0), inst: ri(isa.XORI, 0x0F), check: wantScalar(3, 0xF0)},
		{op: isa.SLTI, name: "slti", setup: setupScalars(5, 0), inst: ri(isa.SLTI, 6), check: wantScalar(3, 1)},
		{op: isa.SLLI, name: "slli", setup: setupScalars(3, 0), inst: ri(isa.SLLI, 4), check: wantScalar(3, 48)},
		{op: isa.SRLI, name: "srli", setup: setupScalars(0x40, 0), inst: ri(isa.SRLI, 2), check: wantScalar(3, 0x10)},
		{op: isa.SRAI, name: "srai", setup: setupScalars(0x84, 0), inst: ri(isa.SRAI, 1), check: wantScalar(3, 0xC2)},
		{op: isa.LUI, name: "lui", width: 32, inst: isa.Inst{Op: isa.LUI, Rd: 3, Imm: 0x12}, check: wantScalar(3, 0x120000)},

		{op: isa.LW, name: "lw",
			setup: func(m *Machine) { m.LoadScalarMem([]int64{0, 0, 77}); m.SetScalar(0, 1, 1) },
			inst:  isa.Inst{Op: isa.LW, Rd: 3, Ra: 1, Imm: 1}, check: wantScalar(3, 77)},
		{op: isa.SW, name: "sw",
			setup: func(m *Machine) { m.SetScalar(0, 3, 88); m.SetScalar(0, 1, 2) },
			inst:  isa.Inst{Op: isa.SW, Rd: 3, Ra: 1, Imm: 1},
			check: func(t *testing.T, m *Machine, _ Outcome) {
				if got := m.ScalarMem(3); got != 88 {
					t.Errorf("mem[3] = %d, want 88", got)
				}
			}},

		{op: isa.BEQ, name: "beq-taken", setup: setupScalars(5, 0),
			inst: isa.Inst{Op: isa.BEQ, Rd: 1, Ra: 1, Imm: 6},
			check: func(t *testing.T, m *Machine, out Outcome) {
				if !out.Redirect || out.NextPC != 6 {
					t.Errorf("outcome = %+v", out)
				}
			}},
		{op: isa.BNE, name: "bne-untaken", setup: setupScalars(5, 0),
			inst: isa.Inst{Op: isa.BNE, Rd: 1, Ra: 1, Imm: 6},
			check: func(t *testing.T, m *Machine, out Outcome) {
				if out.Redirect || out.NextPC != 1 {
					t.Errorf("outcome = %+v", out)
				}
			}},
		{op: isa.BLT, name: "blt-signed", setup: setupScalars(0xFF, 1), // -1 < 1
			inst: isa.Inst{Op: isa.BLT, Rd: 1, Ra: 2, Imm: 5},
			check: func(t *testing.T, m *Machine, out Outcome) {
				if !out.Redirect {
					t.Error("blt -1 < 1 not taken")
				}
			}},
		{op: isa.BGE, name: "bge", setup: setupScalars(4, 4),
			inst: isa.Inst{Op: isa.BGE, Rd: 1, Ra: 2, Imm: 5},
			check: func(t *testing.T, m *Machine, out Outcome) {
				if !out.Redirect {
					t.Error("bge equal not taken")
				}
			}},
		{op: isa.BLTU, name: "bltu-unsigned", setup: setupScalars(0xFF, 1), // 255 > 1
			inst: isa.Inst{Op: isa.BLTU, Rd: 1, Ra: 2, Imm: 5},
			check: func(t *testing.T, m *Machine, out Outcome) {
				if out.Redirect {
					t.Error("bltu 255 < 1 should not be taken")
				}
			}},
		{op: isa.BGEU, name: "bgeu", setup: setupScalars(0xFF, 1),
			inst: isa.Inst{Op: isa.BGEU, Rd: 1, Ra: 2, Imm: 5},
			check: func(t *testing.T, m *Machine, out Outcome) {
				if !out.Redirect {
					t.Error("bgeu 255 >= 1 not taken")
				}
			}},

		{op: isa.J, name: "j", inst: isa.Inst{Op: isa.J, Imm: 4},
			check: func(t *testing.T, m *Machine, out Outcome) {
				if !out.Redirect || out.NextPC != 4 {
					t.Errorf("outcome = %+v", out)
				}
			}},
		{op: isa.JAL, name: "jal", inst: isa.Inst{Op: isa.JAL, Imm: 4},
			check: func(t *testing.T, m *Machine, out Outcome) {
				if out.NextPC != 4 || m.Scalar(0, isa.LinkReg) != 1 {
					t.Errorf("nextpc %d, link %d", out.NextPC, m.Scalar(0, isa.LinkReg))
				}
			}},
		{op: isa.JR, name: "jr", setup: func(m *Machine) { m.SetScalar(0, 1, 5) },
			inst: isa.Inst{Op: isa.JR, Ra: 1},
			check: func(t *testing.T, m *Machine, out Outcome) {
				if !out.Redirect || out.NextPC != 5 {
					t.Errorf("outcome = %+v", out)
				}
			}},

		{op: isa.PADD, name: "padd", setup: setupParallel([4]int64{1, 2, 3, 4}, [4]int64{10, 20, 30, 40}),
			inst: pr(isa.PADD), check: wantParallelAll(3, func(pe int) int64 { return int64(pe+1) + int64((pe+1)*10) })},
		{op: isa.PSUB, name: "psub", setup: setupParallel([4]int64{10, 10, 10, 10}, [4]int64{1, 2, 3, 4}),
			inst: pr(isa.PSUB), check: wantParallelAll(3, func(pe int) int64 { return int64(9 - pe) })},
		{op: isa.PAND, name: "pand", setup: setupParallel([4]int64{12, 12, 12, 12}, [4]int64{10, 10, 10, 10}),
			inst: pr(isa.PAND), check: wantParallelAll(3, func(int) int64 { return 8 })},
		{op: isa.POR, name: "por-broadcast", setup: func(m *Machine) { m.SetScalar(0, 2, 5) },
			inst:  isa.Inst{Op: isa.POR, Rd: 3, Ra: 0, Rb: 2, SB: true},
			check: wantParallelAll(3, func(int) int64 { return 5 })},
		{op: isa.PXOR, name: "pxor", setup: setupParallel([4]int64{3, 3, 3, 3}, [4]int64{1, 1, 1, 1}),
			inst: pr(isa.PXOR), check: wantParallelAll(3, func(int) int64 { return 2 })},
		{op: isa.PSLL, name: "psll", setup: setupParallel([4]int64{1, 1, 1, 1}, [4]int64{0, 1, 2, 3}),
			inst: pr(isa.PSLL), check: wantParallelAll(3, func(pe int) int64 { return 1 << pe })},
		{op: isa.PSRL, name: "psrl", setup: setupParallel([4]int64{0x80, 0x80, 0x80, 0x80}, [4]int64{0, 1, 2, 3}),
			inst: pr(isa.PSRL), check: wantParallelAll(3, func(pe int) int64 { return 0x80 >> pe })},
		{op: isa.PSRA, name: "psra", setup: setupParallel([4]int64{0x80, 0x80, 0x80, 0x80}, [4]int64{1, 1, 1, 1}),
			inst: pr(isa.PSRA), check: wantParallelAll(3, func(int) int64 { return 0xC0 })},
		{op: isa.PMUL, name: "pmul", setup: setupParallel([4]int64{2, 3, 4, 5}, [4]int64{3, 3, 3, 3}),
			inst: pr(isa.PMUL), check: wantParallelAll(3, func(pe int) int64 { return int64((pe + 2) * 3) })},
		{op: isa.PDIV, name: "pdiv", setup: setupParallel([4]int64{9, 8, 7, 6}, [4]int64{2, 2, 2, 2}),
			inst: pr(isa.PDIV), check: wantParallelAll(3, func(pe int) int64 { return int64((9 - pe) / 2) })},
		{op: isa.PMOD, name: "pmod", setup: setupParallel([4]int64{9, 8, 7, 6}, [4]int64{2, 2, 2, 2}),
			inst: pr(isa.PMOD), check: wantParallelAll(3, func(pe int) int64 { return int64((9 - pe) % 2) })},

		{op: isa.PADDI, name: "paddi", setup: setupParallel([4]int64{1, 2, 3, 4}, [4]int64{}),
			inst:  isa.Inst{Op: isa.PADDI, Rd: 3, Ra: 1, Imm: 10},
			check: wantParallelAll(3, func(pe int) int64 { return int64(pe + 11) })},
		{op: isa.PANDI, name: "pandi", setup: setupParallel([4]int64{0xFF, 0xFF, 0xFF, 0xFF}, [4]int64{}),
			inst:  isa.Inst{Op: isa.PANDI, Rd: 3, Ra: 1, Imm: 0x0F},
			check: wantParallelAll(3, func(int) int64 { return 0x0F })},
		{op: isa.PORI, name: "pori", inst: isa.Inst{Op: isa.PORI, Rd: 3, Ra: 0, Imm: 0x21},
			check: wantParallelAll(3, func(int) int64 { return 0x21 })},
		{op: isa.PXORI, name: "pxori", setup: setupParallel([4]int64{0xF0, 0xF0, 0xF0, 0xF0}, [4]int64{}),
			inst:  isa.Inst{Op: isa.PXORI, Rd: 3, Ra: 1, Imm: 0xF0 - 256}, // sign-extended pattern
			check: wantParallelAll(3, func(int) int64 { return 0 })},
		{op: isa.PSLLI, name: "pslli", setup: setupParallel([4]int64{1, 1, 1, 1}, [4]int64{}),
			inst:  isa.Inst{Op: isa.PSLLI, Rd: 3, Ra: 1, Imm: 3},
			check: wantParallelAll(3, func(int) int64 { return 8 })},
		{op: isa.PSRLI, name: "psrli", setup: setupParallel([4]int64{0x80, 0x80, 0x80, 0x80}, [4]int64{}),
			inst:  isa.Inst{Op: isa.PSRLI, Rd: 3, Ra: 1, Imm: 4},
			check: wantParallelAll(3, func(int) int64 { return 8 })},
		{op: isa.PSRAI, name: "psrai", setup: setupParallel([4]int64{0x80, 0x80, 0x80, 0x80}, [4]int64{}),
			inst:  isa.Inst{Op: isa.PSRAI, Rd: 3, Ra: 1, Imm: 4},
			check: wantParallelAll(3, func(int) int64 { return 0xF8 })},
		{op: isa.PLI, name: "pli", inst: isa.Inst{Op: isa.PLI, Rd: 3, Imm: -1},
			check: wantParallelAll(3, func(int) int64 { return 255 })},

		{op: isa.PLW, name: "plw",
			setup: func(m *Machine) {
				m.LoadLocalMem([][]int64{{0, 11}, {0, 22}, {0, 33}, {0, 44}})
			},
			inst:  isa.Inst{Op: isa.PLW, Rd: 3, Ra: 0, Imm: 1},
			check: wantParallelAll(3, func(pe int) int64 { return int64((pe + 1) * 11) })},
		{op: isa.PSW, name: "psw",
			setup: func(m *Machine) {
				for pe := 0; pe < 4; pe++ {
					m.SetParallel(0, pe, 3, int64(pe*5))
				}
			},
			inst: isa.Inst{Op: isa.PSW, Rd: 3, Ra: 0, Imm: 2},
			check: func(t *testing.T, m *Machine, _ Outcome) {
				for pe := 0; pe < 4; pe++ {
					if got := m.LocalMem(pe, 2); got != int64(pe*5) {
						t.Errorf("PE %d mem[2] = %d, want %d", pe, got, pe*5)
					}
				}
			}},
		{op: isa.PIDX, name: "pidx", inst: isa.Inst{Op: isa.PIDX, Rd: 3},
			check: wantParallelAll(3, func(pe int) int64 { return int64(pe) })},

		{op: isa.PCEQ, name: "pceq", setup: setupParallel([4]int64{0, 1, 2, 3}, [4]int64{2, 2, 2, 2}),
			inst: isa.Inst{Op: isa.PCEQ, Rd: 1, Ra: 1, Rb: 2}, check: wantFlagAll(1, func(pe int) bool { return pe == 2 })},
		{op: isa.PCNE, name: "pcne", setup: setupParallel([4]int64{0, 1, 2, 3}, [4]int64{2, 2, 2, 2}),
			inst: isa.Inst{Op: isa.PCNE, Rd: 1, Ra: 1, Rb: 2}, check: wantFlagAll(1, func(pe int) bool { return pe != 2 })},
		{op: isa.PCLT, name: "pclt-signed", setup: setupParallel([4]int64{0xFF, 0, 1, 2}, [4]int64{1, 1, 1, 1}),
			inst: isa.Inst{Op: isa.PCLT, Rd: 1, Ra: 1, Rb: 2}, check: wantFlagAll(1, func(pe int) bool { return pe <= 1 })},
		{op: isa.PCLE, name: "pcle", setup: setupParallel([4]int64{0, 1, 2, 3}, [4]int64{1, 1, 1, 1}),
			inst: isa.Inst{Op: isa.PCLE, Rd: 1, Ra: 1, Rb: 2}, check: wantFlagAll(1, func(pe int) bool { return pe <= 1 })},
		{op: isa.PCGT, name: "pcgt", setup: setupParallel([4]int64{0, 1, 2, 3}, [4]int64{1, 1, 1, 1}),
			inst: isa.Inst{Op: isa.PCGT, Rd: 1, Ra: 1, Rb: 2}, check: wantFlagAll(1, func(pe int) bool { return pe >= 2 })},
		{op: isa.PCGE, name: "pcge", setup: setupParallel([4]int64{0, 1, 2, 3}, [4]int64{1, 1, 1, 1}),
			inst: isa.Inst{Op: isa.PCGE, Rd: 1, Ra: 1, Rb: 2}, check: wantFlagAll(1, func(pe int) bool { return pe >= 1 })},
		{op: isa.PCLTU, name: "pcltu", setup: setupParallel([4]int64{0xFF, 0, 1, 2}, [4]int64{1, 1, 1, 1}),
			inst: isa.Inst{Op: isa.PCLTU, Rd: 1, Ra: 1, Rb: 2}, check: wantFlagAll(1, func(pe int) bool { return pe == 1 })},
		{op: isa.PCLEU, name: "pcleu", setup: setupParallel([4]int64{0xFF, 0, 1, 2}, [4]int64{1, 1, 1, 1}),
			inst: isa.Inst{Op: isa.PCLEU, Rd: 1, Ra: 1, Rb: 2}, check: wantFlagAll(1, func(pe int) bool { return pe == 1 || pe == 2 })},
		{op: isa.PCGTU, name: "pcgtu", setup: setupParallel([4]int64{0xFF, 0, 1, 2}, [4]int64{1, 1, 1, 1}),
			inst: isa.Inst{Op: isa.PCGTU, Rd: 1, Ra: 1, Rb: 2}, check: wantFlagAll(1, func(pe int) bool { return pe == 0 || pe == 3 })},
		{op: isa.PCGEU, name: "pcgeu", setup: setupParallel([4]int64{0xFF, 0, 1, 2}, [4]int64{1, 1, 1, 1}),
			inst: isa.Inst{Op: isa.PCGEU, Rd: 1, Ra: 1, Rb: 2}, check: wantFlagAll(1, func(pe int) bool { return pe != 1 })},

		{op: isa.FAND, name: "fand",
			setup: func(m *Machine) {
				for pe := 0; pe < 4; pe++ {
					m.SetFlag(0, pe, 1, pe%2 == 0)
					m.SetFlag(0, pe, 2, pe < 2)
				}
			},
			inst: isa.Inst{Op: isa.FAND, Rd: 3, Ra: 1, Rb: 2}, check: wantFlagAll(3, func(pe int) bool { return pe == 0 })},
		{op: isa.FOR, name: "for",
			setup: func(m *Machine) {
				for pe := 0; pe < 4; pe++ {
					m.SetFlag(0, pe, 1, pe%2 == 0)
					m.SetFlag(0, pe, 2, pe < 2)
				}
			},
			inst: isa.Inst{Op: isa.FOR, Rd: 3, Ra: 1, Rb: 2}, check: wantFlagAll(3, func(pe int) bool { return pe != 3 })},
		{op: isa.FXOR, name: "fxor",
			setup: func(m *Machine) {
				for pe := 0; pe < 4; pe++ {
					m.SetFlag(0, pe, 1, pe%2 == 0)
					m.SetFlag(0, pe, 2, pe < 2)
				}
			},
			inst: isa.Inst{Op: isa.FXOR, Rd: 3, Ra: 1, Rb: 2}, check: wantFlagAll(3, func(pe int) bool { return pe == 1 || pe == 2 })},
		{op: isa.FANDN, name: "fandn",
			setup: func(m *Machine) {
				for pe := 0; pe < 4; pe++ {
					m.SetFlag(0, pe, 1, true)
					m.SetFlag(0, pe, 2, pe == 1)
				}
			},
			inst: isa.Inst{Op: isa.FANDN, Rd: 3, Ra: 1, Rb: 2}, check: wantFlagAll(3, func(pe int) bool { return pe != 1 })},
		{op: isa.FNOT, name: "fnot",
			setup: func(m *Machine) {
				for pe := 0; pe < 4; pe++ {
					m.SetFlag(0, pe, 1, pe < 2)
				}
			},
			inst: isa.Inst{Op: isa.FNOT, Rd: 3, Ra: 1}, check: wantFlagAll(3, func(pe int) bool { return pe >= 2 })},
		{op: isa.FMOV, name: "fmov",
			setup: func(m *Machine) {
				for pe := 0; pe < 4; pe++ {
					m.SetFlag(0, pe, 1, pe == 2)
				}
			},
			inst: isa.Inst{Op: isa.FMOV, Rd: 3, Ra: 1}, check: wantFlagAll(3, func(pe int) bool { return pe == 2 })},
		{op: isa.FSET, name: "fset", inst: isa.Inst{Op: isa.FSET, Rd: 3},
			check: wantFlagAll(3, func(int) bool { return true })},
		{op: isa.FCLR, name: "fclr",
			setup: func(m *Machine) {
				for pe := 0; pe < 4; pe++ {
					m.SetFlag(0, pe, 3, true)
				}
			},
			inst: isa.Inst{Op: isa.FCLR, Rd: 3}, check: wantFlagAll(3, func(int) bool { return false })},

		{op: isa.RAND, name: "rand", setup: setupParallel([4]int64{0b1101, 0b0101, 0b0111, 0b1101}, [4]int64{}),
			inst: isa.Inst{Op: isa.RAND, Rd: 3, Ra: 1}, check: wantScalar(3, 0b0101)},
		{op: isa.ROR, name: "ror", setup: setupParallel([4]int64{1, 2, 4, 8}, [4]int64{}),
			inst: isa.Inst{Op: isa.ROR, Rd: 3, Ra: 1}, check: wantScalar(3, 15)},
		{op: isa.RMAX, name: "rmax-signed", setup: setupParallel([4]int64{0xFF, 3, 0x80, 2}, [4]int64{}),
			inst: isa.Inst{Op: isa.RMAX, Rd: 3, Ra: 1}, check: wantScalar(3, 3)}, // -1, 3, -128, 2
		{op: isa.RMIN, name: "rmin-signed", setup: setupParallel([4]int64{0xFF, 3, 0x80, 2}, [4]int64{}),
			inst: isa.Inst{Op: isa.RMIN, Rd: 3, Ra: 1}, check: wantScalar(3, 0x80)}, // -128
		{op: isa.RMAXU, name: "rmaxu", setup: setupParallel([4]int64{0xFF, 3, 0x80, 2}, [4]int64{}),
			inst: isa.Inst{Op: isa.RMAXU, Rd: 3, Ra: 1}, check: wantScalar(3, 0xFF)},
		{op: isa.RMINU, name: "rminu", setup: setupParallel([4]int64{0xFF, 3, 0x80, 2}, [4]int64{}),
			inst: isa.Inst{Op: isa.RMINU, Rd: 3, Ra: 1}, check: wantScalar(3, 2)},
		{op: isa.RSUM, name: "rsum", setup: setupParallel([4]int64{10, 20, 30, 40}, [4]int64{}),
			inst: isa.Inst{Op: isa.RSUM, Rd: 3, Ra: 1}, check: wantScalar(3, 100)},
		{op: isa.RCOUNT, name: "rcount",
			setup: func(m *Machine) {
				for pe := 0; pe < 4; pe++ {
					m.SetFlag(0, pe, 1, pe != 1)
				}
			},
			inst: isa.Inst{Op: isa.RCOUNT, Rd: 3, Ra: 1}, check: wantScalar(3, 3)},
		{op: isa.RANY, name: "rany",
			setup: func(m *Machine) { m.SetFlag(0, 2, 1, true) },
			inst:  isa.Inst{Op: isa.RANY, Rd: 3, Ra: 1}, check: wantScalar(3, 1)},
		{op: isa.RFIRST, name: "rfirst",
			setup: func(m *Machine) {
				m.SetFlag(0, 1, 1, true)
				m.SetFlag(0, 3, 1, true)
			},
			inst: isa.Inst{Op: isa.RFIRST, Rd: 2, Ra: 1}, check: wantFlagAll(2, func(pe int) bool { return pe == 1 })},

		{op: isa.TID, name: "tid", inst: isa.Inst{Op: isa.TID, Rd: 3}, check: wantScalar(3, 0)},
		{op: isa.TSPAWN, name: "tspawn", inst: isa.Inst{Op: isa.TSPAWN, Rd: 3, Imm: 2},
			check: func(t *testing.T, m *Machine, out Outcome) {
				if out.Spawned != 1 || m.Scalar(0, 3) != 1 {
					t.Errorf("spawned %d, s3 %d", out.Spawned, m.Scalar(0, 3))
				}
				if !m.ThreadActive(1) || m.PC(1) != 2 {
					t.Errorf("child state: active %v pc %d", m.ThreadActive(1), m.PC(1))
				}
			}},
		{op: isa.TEXIT, name: "texit", inst: isa.Inst{Op: isa.TEXIT},
			check: func(t *testing.T, m *Machine, out Outcome) {
				if !out.Exited || m.ThreadActive(0) {
					t.Errorf("outcome = %+v, active %v", out, m.ThreadActive(0))
				}
			}},
		{op: isa.TJOIN, name: "tjoin-dead", setup: func(m *Machine) { m.SetScalar(0, 1, 1) },
			inst: isa.Inst{Op: isa.TJOIN, Ra: 1},
			check: func(t *testing.T, m *Machine, out Outcome) {
				if out.NextPC != 1 {
					t.Errorf("outcome = %+v", out)
				}
			}},
		{op: isa.TSEND, name: "tsend-self", setup: func(m *Machine) { m.SetScalar(0, 2, 99) },
			inst: isa.Inst{Op: isa.TSEND, Ra: 0, Rb: 2}, // target = s0 = thread 0
			check: func(t *testing.T, m *Machine, _ Outcome) {
				if m.MailboxLen(0) != 1 {
					t.Error("mailbox empty after send")
				}
			}},
		{op: isa.TRECV, name: "trecv",
			setup: func(m *Machine) {
				m.SetScalar(0, 2, 42)
				if _, err := m.ExecDecoded(0, dec(isa.Inst{Op: isa.TSEND, Ra: 0, Rb: 2})); err != nil {
					panic(err)
				}
				m.SetPC(0, 0)
			},
			inst: isa.Inst{Op: isa.TRECV, Rd: 3}, check: wantScalar(3, 42)},
	}
}

// TestGoldenOpcodeSemantics runs every scenario and then asserts that every
// opcode in the ISA has at least one scenario.
func TestGoldenOpcodeSemantics(t *testing.T) {
	covered := map[isa.Op]bool{}
	for _, c := range goldenCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			m := opMachine(t, c.width)
			if c.setup != nil {
				c.setup(m)
			}
			out, err := m.ExecDecoded(0, dec(c.inst))
			if err != nil {
				t.Fatalf("exec: %v", err)
			}
			c.check(t, m, out)
		})
		covered[c.op] = true
	}
	for op := isa.Op(0); int(op) < isa.NumOps; op++ {
		if !covered[op] {
			t.Errorf("opcode %v has no golden semantics scenario", op)
		}
	}
}
