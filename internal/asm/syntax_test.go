package asm

import (
	"strings"
	"testing"

	"repro/internal/isa"
)

// TestSyntaxGolden pins the assembly form of every opcode: its listing
// text, that the text assembles back to the same instruction, where labels
// may stand for immediates, and the exact error for each kind of malformed
// operand.
func TestSyntaxGolden(t *testing.T) {
	golden := []struct {
		in   isa.Inst
		text string
	}{
		{isa.Inst{Op: isa.NOP}, "nop"},
		{isa.Inst{Op: isa.HALT}, "halt"},
		{isa.Inst{Op: isa.ADD, Rd: 3, Ra: 5, Rb: 6}, "add s3, s5, s6"},
		{isa.Inst{Op: isa.SUB, Rd: 3, Ra: 5, Rb: 6}, "sub s3, s5, s6"},
		{isa.Inst{Op: isa.AND, Rd: 3, Ra: 5, Rb: 6}, "and s3, s5, s6"},
		{isa.Inst{Op: isa.OR, Rd: 3, Ra: 5, Rb: 6}, "or s3, s5, s6"},
		{isa.Inst{Op: isa.XOR, Rd: 3, Ra: 5, Rb: 6}, "xor s3, s5, s6"},
		{isa.Inst{Op: isa.SLL, Rd: 3, Ra: 5, Rb: 6}, "sll s3, s5, s6"},
		{isa.Inst{Op: isa.SRL, Rd: 3, Ra: 5, Rb: 6}, "srl s3, s5, s6"},
		{isa.Inst{Op: isa.SRA, Rd: 3, Ra: 5, Rb: 6}, "sra s3, s5, s6"},
		{isa.Inst{Op: isa.SLT, Rd: 3, Ra: 5, Rb: 6}, "slt s3, s5, s6"},
		{isa.Inst{Op: isa.SLTU, Rd: 3, Ra: 5, Rb: 6}, "sltu s3, s5, s6"},
		{isa.Inst{Op: isa.MUL, Rd: 3, Ra: 5, Rb: 6}, "mul s3, s5, s6"},
		{isa.Inst{Op: isa.DIV, Rd: 3, Ra: 5, Rb: 6}, "div s3, s5, s6"},
		{isa.Inst{Op: isa.MOD, Rd: 3, Ra: 5, Rb: 6}, "mod s3, s5, s6"},
		{isa.Inst{Op: isa.ADDI, Rd: 3, Ra: 5, Imm: 115}, "addi s3, s5, 115"},
		{isa.Inst{Op: isa.ANDI, Rd: 3, Ra: 5, Imm: 116}, "andi s3, s5, 116"},
		{isa.Inst{Op: isa.ORI, Rd: 3, Ra: 5, Imm: 117}, "ori s3, s5, 117"},
		{isa.Inst{Op: isa.XORI, Rd: 3, Ra: 5, Imm: 118}, "xori s3, s5, 118"},
		{isa.Inst{Op: isa.SLTI, Rd: 3, Ra: 5, Imm: 119}, "slti s3, s5, 119"},
		{isa.Inst{Op: isa.SLLI, Rd: 3, Ra: 5, Imm: 120}, "slli s3, s5, 120"},
		{isa.Inst{Op: isa.SRLI, Rd: 3, Ra: 5, Imm: 121}, "srli s3, s5, 121"},
		{isa.Inst{Op: isa.SRAI, Rd: 3, Ra: 5, Imm: 122}, "srai s3, s5, 122"},
		{isa.Inst{Op: isa.LUI, Rd: 3, Imm: 123}, "lui s3, 123"},
		{isa.Inst{Op: isa.LW, Rd: 3, Ra: 5, Imm: 124}, "lw s3, 124(s5)"},
		{isa.Inst{Op: isa.SW, Rd: 3, Ra: 5, Imm: 125}, "sw s3, 125(s5)"},
		{isa.Inst{Op: isa.BEQ, Rd: 3, Ra: 5, Imm: 126}, "beq s3, s5, 126"},
		{isa.Inst{Op: isa.BNE, Rd: 3, Ra: 5, Imm: 127}, "bne s3, s5, 127"},
		{isa.Inst{Op: isa.BLT, Rd: 3, Ra: 5, Imm: 128}, "blt s3, s5, 128"},
		{isa.Inst{Op: isa.BGE, Rd: 3, Ra: 5, Imm: 129}, "bge s3, s5, 129"},
		{isa.Inst{Op: isa.BLTU, Rd: 3, Ra: 5, Imm: 130}, "bltu s3, s5, 130"},
		{isa.Inst{Op: isa.BGEU, Rd: 3, Ra: 5, Imm: 131}, "bgeu s3, s5, 131"},
		{isa.Inst{Op: isa.J, Imm: 40}, "j 40"},
		{isa.Inst{Op: isa.JAL, Imm: 40}, "jal 40"},
		{isa.Inst{Op: isa.JR, Ra: 5}, "jr s5"},
		{isa.Inst{Op: isa.PADD, Rd: 3, Ra: 5, Rb: 6, Mask: 2, SB: true}, "padd p3, p5, s6 ?f2"},
		{isa.Inst{Op: isa.PSUB, Rd: 3, Ra: 5, Rb: 6, Mask: 2}, "psub p3, p5, p6 ?f2"},
		{isa.Inst{Op: isa.PAND, Rd: 3, Ra: 5, Rb: 6, Mask: 2}, "pand p3, p5, p6 ?f2"},
		{isa.Inst{Op: isa.POR, Rd: 3, Ra: 5, Rb: 6, Mask: 2}, "por p3, p5, p6 ?f2"},
		{isa.Inst{Op: isa.PXOR, Rd: 3, Ra: 5, Rb: 6, Mask: 2}, "pxor p3, p5, p6 ?f2"},
		{isa.Inst{Op: isa.PSLL, Rd: 3, Ra: 5, Rb: 6, Mask: 2}, "psll p3, p5, p6 ?f2"},
		{isa.Inst{Op: isa.PSRL, Rd: 3, Ra: 5, Rb: 6, Mask: 2}, "psrl p3, p5, p6 ?f2"},
		{isa.Inst{Op: isa.PSRA, Rd: 3, Ra: 5, Rb: 6, Mask: 2}, "psra p3, p5, p6 ?f2"},
		{isa.Inst{Op: isa.PMUL, Rd: 3, Ra: 5, Rb: 6, Mask: 2}, "pmul p3, p5, p6 ?f2"},
		{isa.Inst{Op: isa.PDIV, Rd: 3, Ra: 5, Rb: 6, Mask: 2}, "pdiv p3, p5, p6 ?f2"},
		{isa.Inst{Op: isa.PMOD, Rd: 3, Ra: 5, Rb: 6, Mask: 2}, "pmod p3, p5, p6 ?f2"},
		{isa.Inst{Op: isa.PADDI, Rd: 3, Ra: 5, Imm: -46, Mask: 2}, "paddi p3, p5, -46 ?f2"},
		{isa.Inst{Op: isa.PANDI, Rd: 3, Ra: 5, Imm: -47, Mask: 2}, "pandi p3, p5, -47 ?f2"},
		{isa.Inst{Op: isa.PORI, Rd: 3, Ra: 5, Imm: -48, Mask: 2}, "pori p3, p5, -48 ?f2"},
		{isa.Inst{Op: isa.PXORI, Rd: 3, Ra: 5, Imm: -49, Mask: 2}, "pxori p3, p5, -49 ?f2"},
		{isa.Inst{Op: isa.PSLLI, Rd: 3, Ra: 5, Imm: -50, Mask: 2}, "pslli p3, p5, -50 ?f2"},
		{isa.Inst{Op: isa.PSRLI, Rd: 3, Ra: 5, Imm: -51, Mask: 2}, "psrli p3, p5, -51 ?f2"},
		{isa.Inst{Op: isa.PSRAI, Rd: 3, Ra: 5, Imm: -52, Mask: 2}, "psrai p3, p5, -52 ?f2"},
		{isa.Inst{Op: isa.PLI, Rd: 3, Imm: -53, Mask: 2}, "pli p3, -53 ?f2"},
		{isa.Inst{Op: isa.PLW, Rd: 3, Ra: 5, Imm: -54, Mask: 2}, "plw p3, -54(p5) ?f2"},
		{isa.Inst{Op: isa.PSW, Rd: 3, Ra: 5, Imm: -55, Mask: 2}, "psw p3, -55(p5) ?f2"},
		{isa.Inst{Op: isa.PIDX, Rd: 3, Mask: 2}, "pidx p3 ?f2"},
		{isa.Inst{Op: isa.PCEQ, Rd: 3, Ra: 5, Rb: 6, Mask: 2}, "pceq f3, p5, p6 ?f2"},
		{isa.Inst{Op: isa.PCNE, Rd: 3, Ra: 5, Rb: 6, Mask: 2}, "pcne f3, p5, p6 ?f2"},
		{isa.Inst{Op: isa.PCLT, Rd: 3, Ra: 5, Rb: 6, Mask: 2}, "pclt f3, p5, p6 ?f2"},
		{isa.Inst{Op: isa.PCLE, Rd: 3, Ra: 5, Rb: 6, Mask: 2}, "pcle f3, p5, p6 ?f2"},
		{isa.Inst{Op: isa.PCGT, Rd: 3, Ra: 5, Rb: 6, Mask: 2}, "pcgt f3, p5, p6 ?f2"},
		{isa.Inst{Op: isa.PCGE, Rd: 3, Ra: 5, Rb: 6, Mask: 2}, "pcge f3, p5, p6 ?f2"},
		{isa.Inst{Op: isa.PCLTU, Rd: 3, Ra: 5, Rb: 6, Mask: 2}, "pcltu f3, p5, p6 ?f2"},
		{isa.Inst{Op: isa.PCLEU, Rd: 3, Ra: 5, Rb: 6, Mask: 2}, "pcleu f3, p5, p6 ?f2"},
		{isa.Inst{Op: isa.PCGTU, Rd: 3, Ra: 5, Rb: 6, Mask: 2}, "pcgtu f3, p5, p6 ?f2"},
		{isa.Inst{Op: isa.PCGEU, Rd: 3, Ra: 5, Rb: 6, Mask: 2}, "pcgeu f3, p5, p6 ?f2"},
		{isa.Inst{Op: isa.FAND, Rd: 3, Ra: 5, Rb: 6, Mask: 2}, "fand f3, f5, f6 ?f2"},
		{isa.Inst{Op: isa.FOR, Rd: 3, Ra: 5, Rb: 6, Mask: 2}, "for f3, f5, f6 ?f2"},
		{isa.Inst{Op: isa.FXOR, Rd: 3, Ra: 5, Rb: 6, Mask: 2}, "fxor f3, f5, f6 ?f2"},
		{isa.Inst{Op: isa.FANDN, Rd: 3, Ra: 5, Rb: 6, Mask: 2}, "fandn f3, f5, f6 ?f2"},
		{isa.Inst{Op: isa.FNOT, Rd: 3, Ra: 5, Mask: 2}, "fnot f3, f5 ?f2"},
		{isa.Inst{Op: isa.FMOV, Rd: 3, Ra: 5, Mask: 2}, "fmov f3, f5 ?f2"},
		{isa.Inst{Op: isa.FSET, Rd: 3, Mask: 2}, "fset f3 ?f2"},
		{isa.Inst{Op: isa.FCLR, Rd: 3, Mask: 2}, "fclr f3 ?f2"},
		{isa.Inst{Op: isa.RAND, Rd: 3, Ra: 5, Mask: 2}, "rand s3, p5 ?f2"},
		{isa.Inst{Op: isa.ROR, Rd: 3, Ra: 5, Mask: 2}, "ror s3, p5 ?f2"},
		{isa.Inst{Op: isa.RMAX, Rd: 3, Ra: 5, Mask: 2}, "rmax s3, p5 ?f2"},
		{isa.Inst{Op: isa.RMIN, Rd: 3, Ra: 5, Mask: 2}, "rmin s3, p5 ?f2"},
		{isa.Inst{Op: isa.RMAXU, Rd: 3, Ra: 5, Mask: 2}, "rmaxu s3, p5 ?f2"},
		{isa.Inst{Op: isa.RMINU, Rd: 3, Ra: 5, Mask: 2}, "rminu s3, p5 ?f2"},
		{isa.Inst{Op: isa.RSUM, Rd: 3, Ra: 5, Mask: 2}, "rsum s3, p5 ?f2"},
		{isa.Inst{Op: isa.RCOUNT, Rd: 3, Ra: 5, Mask: 2}, "rcount s3, f5 ?f2"},
		{isa.Inst{Op: isa.RANY, Rd: 3, Ra: 5, Mask: 2}, "rany s3, f5 ?f2"},
		{isa.Inst{Op: isa.RFIRST, Rd: 3, Ra: 5, Mask: 2}, "rfirst f3, f5 ?f2"},
		{isa.Inst{Op: isa.TSPAWN, Rd: 3, Imm: 185}, "tspawn s3, 185"},
		{isa.Inst{Op: isa.TEXIT}, "texit"},
		{isa.Inst{Op: isa.TJOIN, Ra: 5}, "tjoin s5"},
		{isa.Inst{Op: isa.TSEND, Ra: 5, Rb: 6}, "tsend s5, s6"},
		{isa.Inst{Op: isa.TRECV, Rd: 3}, "trecv s3"},
		{isa.Inst{Op: isa.TID, Rd: 3}, "tid s3"},
	}
	seen := make(map[isa.Op]bool)
	for _, g := range golden {
		seen[g.in.Op] = true
		if got := g.in.String(); got != g.text {
			t.Errorf("%v.String() = %q, want %q", g.in.Op, got, g.text)
		}
		p, err := Assemble(g.text)
		if err != nil {
			t.Errorf("Assemble(%q): %v", g.text, err)
			continue
		}
		if len(p.Insts) != 1 || p.Insts[0] != g.in {
			t.Errorf("Assemble(%q) = %v, want %#v", g.text, p.Insts, g.in)
		}
	}
	for op := isa.Op(0); int(op) < isa.NumOps; op++ {
		if !seen[op] {
			t.Errorf("no golden row for %v", op)
		}
	}

	// A label may stand for a FormatI or FormatJ immediate, except lui's.
	p, err := Assemble(strings.Join([]string{
		"nop", "x: addi s3, s5, x", "tspawn s3, x", "beq s3, s5, x", "j x", "jal x",
	}, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range p.Insts[1:] {
		if in.Imm != 1 {
			t.Errorf("%v: label resolved to %d, want 1", in, in.Imm)
		}
	}

	bad := []struct{ src, err string }{
		{"add p3, s5, s6", "asm: line 1: add: expected scalar register, got \"p3\""},
		{"addi s3, p5, 1", "asm: line 1: addi: expected scalar register, got \"p5\""},
		{"padd p3, s5, p6", "asm: line 1: padd: expected parallel register, got \"s5\""},
		{"pceq f3, p5, f6", "asm: line 1: pceq: expected parallel register, got \"f6\""},
		{"fand f3, f5, s6", "asm: line 1: fand: expected flag register, got \"s6\""},
		{"tsend s5, p6", "asm: line 1: tsend: expected scalar register, got \"p6\""},
		{"tspawn f3, 4", "asm: line 1: tspawn: expected scalar register, got \"f3\""},
		{"lw p3, 4(s5)", "asm: line 1: lw: expected scalar register, got \"p3\""},
		{"plw p3, 4(s5)", "asm: line 1: expected parallel base register in \"4(s5)\""},
		{"lw s3, 4[s5]", "asm: line 1: invalid integer \"4[s5]\""},
		{"sw s3, (s5", "asm: line 1: malformed memory operand \"(s5\""},
		{"x: paddi p3, p5, x", "asm: line 1: invalid integer \"x\""},
		{"x: pli p3, x", "asm: line 1: invalid integer \"x\""},
		{"x: lui s3, x", "asm: line 1: invalid integer \"x\""},
		{"addi s3, s5, 0x", "asm: line 1: invalid integer \"0x\""},
		{"beq s3, s5, -", "asm: line 1: invalid integer \"\""},
		{"add s3, s5, s6, s7", "asm: line 1: add expects 3 operand(s), got 4"},
		{"add s3, s5", "asm: line 1: add expects 3 operand(s), got 2"},
		{"lw s3", "asm: line 1: lw expects 2 operand(s), got 1"},
		{"beq s3, s5", "asm: line 1: beq expects 3 operand(s), got 2"},
		{"j", "asm: line 1: j expects 1 operand(s), got 0"},
		{"halt s1", "asm: line 1: halt expects 0 operand(s), got 1"},
		{"pidx p3, p5", "asm: line 1: pidx expects 1 operand(s), got 2"},
		{"add s3, s5, s6 ?f1", "asm: line 1: add does not accept a mask"},
		{"addi s3, s5, 1 ?f2", "asm: line 1: addi does not accept a mask"},
		{"j x ?f1", "asm: line 1: j does not accept a mask"},
	}
	for _, c := range bad {
		_, err := Assemble(c.src)
		if err == nil || err.Error() != c.err {
			t.Errorf("Assemble(%q) error = %v, want %q", c.src, err, c.err)
		}
	}
}
