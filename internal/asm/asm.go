// Package asm implements a two-pass assembler and a disassembler for the
// MTASC instruction set (see internal/isa).
//
// Syntax:
//
//	; comment, # comment, // comment
//	label:                      ; code label (word address)
//	.equ NAME value             ; named constant
//	.data                       ; switch to the scalar data segment
//	.word v0, v1, ...           ; emit initial scalar-memory words
//	.text                       ; switch back to code (default)
//	add  s1, s2, s3             ; scalar register-register
//	addi s1, s2, -5             ; immediate
//	lw   s1, 8(s2)              ; scalar load/store
//	padd p1, p2, p3  ?f2        ; parallel op masked by flag f2
//	padd p1, p2, s3             ; scalar operand broadcast to the PE array
//	rmax s1, p2      ?f1        ; reduction over responders in f1
//	beq  s1, s2, label          ; branch to label
//	tspawn s1, worker           ; allocate a hardware thread at label
//
// Pseudo-instructions: li, mov, pmov, beqz, bnez, ble, bgt, bleu, bgtu,
// call, ret, inc, dec.
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/isa"
)

// Program is the output of the assembler.
type Program struct {
	// Insts are the decoded instructions, indexed by word address.
	Insts []isa.Inst
	// Words are the binary encodings of Insts.
	Words []uint32
	// Labels maps each code label to its word address and each data label
	// to its scalar-memory word address.
	Labels map[string]int
	// Data is the initial scalar data memory image from .data/.word.
	Data []uint32
	// Lines[i] is the 1-based source line of Insts[i], for diagnostics.
	Lines []int
}

// Error is an assembly error with source position.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

type assembler struct {
	prog     *Program
	equs     map[string]int64
	inData   bool
	dataAddr int
	// fixups are operands that reference labels, patched in pass two.
	fixups []fixup
}

type fixup struct {
	instIdx int
	label   string
	line    int
}

// Assemble translates source text into a Program.
func Assemble(src string) (*Program, error) {
	a := &assembler{
		prog: &Program{Labels: make(map[string]int)},
		equs: make(map[string]int64),
	}
	lines := strings.Split(src, "\n")

	// Pass one: parse lines, record label addresses, leave label operands
	// as fixups.
	for i, raw := range lines {
		if err := a.line(i+1, raw); err != nil {
			return nil, err
		}
	}

	// Pass two: patch label references and encode.
	for _, f := range a.fixups {
		addr, ok := a.prog.Labels[f.label]
		if !ok {
			return nil, &Error{Line: f.line, Msg: fmt.Sprintf("undefined label %q", f.label)}
		}
		a.prog.Insts[f.instIdx].Imm = int32(addr)
	}
	a.prog.Words = make([]uint32, len(a.prog.Insts))
	for i, in := range a.prog.Insts {
		w, err := in.Encode()
		if err != nil {
			return nil, &Error{Line: a.prog.Lines[i], Msg: err.Error()}
		}
		a.prog.Words[i] = w
	}
	return a.prog, nil
}

// MustAssemble is Assemble that panics on error; for tests and the built-in
// kernel library, whose sources are compile-time constants.
func MustAssemble(src string) *Program {
	p, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return p
}

func stripComment(s string) string {
	for _, marker := range []string{";", "#", "//"} {
		if i := strings.Index(s, marker); i >= 0 {
			s = s[:i]
		}
	}
	return strings.TrimSpace(s)
}

func (a *assembler) line(n int, raw string) error {
	s := stripComment(raw)
	if s == "" {
		return nil
	}
	// Labels (possibly several, possibly followed by an instruction).
	for {
		i := strings.Index(s, ":")
		if i < 0 {
			break
		}
		label := strings.TrimSpace(s[:i])
		if !isIdent(label) {
			return &Error{Line: n, Msg: fmt.Sprintf("invalid label %q", label)}
		}
		if _, dup := a.prog.Labels[label]; dup {
			return &Error{Line: n, Msg: fmt.Sprintf("duplicate label %q", label)}
		}
		if a.inData {
			a.prog.Labels[label] = a.dataAddr
		} else {
			a.prog.Labels[label] = len(a.prog.Insts)
		}
		s = strings.TrimSpace(s[i+1:])
		if s == "" {
			return nil
		}
	}
	if strings.HasPrefix(s, ".") {
		return a.directive(n, s)
	}
	return a.instruction(n, s)
}

func (a *assembler) directive(n int, s string) error {
	fields := strings.Fields(s)
	switch fields[0] {
	case ".text":
		a.inData = false
	case ".data":
		a.inData = true
	case ".equ":
		if len(fields) < 3 {
			return &Error{Line: n, Msg: ".equ needs a name and a value"}
		}
		if !isIdent(fields[1]) {
			return &Error{Line: n, Msg: fmt.Sprintf("invalid .equ name %q", fields[1])}
		}
		v, err := a.evalInt(n, fields[2])
		if err != nil {
			return err
		}
		a.equs[fields[1]] = v
	case ".word":
		if !a.inData {
			return &Error{Line: n, Msg: ".word outside .data segment"}
		}
		rest := strings.TrimSpace(strings.TrimPrefix(s, ".word"))
		for _, tok := range splitOperands(rest) {
			v, err := a.evalInt(n, tok)
			if err != nil {
				return err
			}
			a.prog.Data = append(a.prog.Data, uint32(v))
			a.dataAddr++
		}
	case ".ascii":
		if !a.inData {
			return &Error{Line: n, Msg: ".ascii outside .data segment"}
		}
		rest := strings.TrimSpace(strings.TrimPrefix(s, ".ascii"))
		str, err := strconv.Unquote(rest)
		if err != nil {
			return &Error{Line: n, Msg: fmt.Sprintf("invalid .ascii string %s", rest)}
		}
		for _, c := range []byte(str) {
			a.prog.Data = append(a.prog.Data, uint32(c))
			a.dataAddr++
		}
	case ".space":
		if !a.inData {
			return &Error{Line: n, Msg: ".space outside .data segment"}
		}
		if len(fields) < 2 {
			return &Error{Line: n, Msg: ".space needs a word count"}
		}
		v, err := a.evalInt(n, fields[1])
		if err != nil {
			return err
		}
		for i := int64(0); i < v; i++ {
			a.prog.Data = append(a.prog.Data, 0)
			a.dataAddr++
		}
	default:
		return &Error{Line: n, Msg: fmt.Sprintf("unknown directive %s", fields[0])}
	}
	return nil
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || i > 0 && c >= '0' && c <= '9'
		if !ok {
			return false
		}
	}
	return true
}

// splitOperands splits "a, b, c" respecting that parentheses contain no commas.
func splitOperands(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		out = append(out, strings.TrimSpace(p))
	}
	return out
}

func (a *assembler) evalInt(n int, tok string) (int64, error) {
	tok = strings.TrimSpace(tok)
	if v, ok := a.equs[tok]; ok {
		return v, nil
	}
	neg := false
	if strings.HasPrefix(tok, "-") {
		neg = true
		tok = tok[1:]
		if v, ok := a.equs[tok]; ok {
			return -v, nil
		}
	}
	v, err := strconv.ParseInt(tok, 0, 64)
	if err != nil {
		return 0, &Error{Line: n, Msg: fmt.Sprintf("invalid integer %q", tok)}
	}
	if neg {
		v = -v
	}
	return v, nil
}

// parseReg parses a register token of the given kind, e.g. "s3", "p15", "f2".
func parseReg(kind isa.RegKind, tok string) (uint8, bool) {
	var prefix byte
	var limit int
	switch kind {
	case isa.KindScalar:
		prefix, limit = 's', isa.NumScalarRegs
	case isa.KindParallel:
		prefix, limit = 'p', isa.NumParallelRegs
	case isa.KindFlag:
		prefix, limit = 'f', isa.NumFlagRegs
	default:
		return 0, false
	}
	if len(tok) < 2 || tok[0] != prefix {
		return 0, false
	}
	v, err := strconv.Atoi(tok[1:])
	if err != nil || v < 0 || v >= limit {
		return 0, false
	}
	return uint8(v), true
}

func (a *assembler) emit(n int, in isa.Inst) {
	a.prog.Insts = append(a.prog.Insts, in.Canonical())
	a.prog.Lines = append(a.prog.Lines, n)
}

// operand value: either an immediate (resolved now) or a label (fixed up in
// pass two against the emitted instruction's Imm field).
func (a *assembler) immOrLabel(n, instIdx int, tok string) (int32, error) {
	if isIdent(tok) {
		if v, ok := a.equs[tok]; ok {
			return int32(v), nil
		}
		a.fixups = append(a.fixups, fixup{instIdx: instIdx, label: tok, line: n})
		return 0, nil
	}
	v, err := a.evalInt(n, tok)
	if err != nil {
		return 0, err
	}
	return int32(v), nil
}

func (a *assembler) instruction(n int, s string) error {
	if a.inData {
		return &Error{Line: n, Msg: "instruction inside .data segment"}
	}
	// Extract the optional trailing mask "?fN".
	mask := uint8(0)
	if i := strings.LastIndex(s, "?"); i >= 0 {
		mtok := strings.TrimSpace(s[i+1:])
		m, ok := parseReg(isa.KindFlag, mtok)
		if !ok {
			return &Error{Line: n, Msg: fmt.Sprintf("invalid mask %q", mtok)}
		}
		mask = m
		s = strings.TrimSpace(s[:i])
	}
	// Split mnemonic and operand list.
	mnem := s
	var rest string
	if i := strings.IndexAny(s, " \t"); i >= 0 {
		mnem, rest = s[:i], strings.TrimSpace(s[i+1:])
	}
	mnem = strings.ToLower(mnem)
	ops := splitOperands(rest)

	if handled, err := a.pseudo(n, mnem, ops, mask); handled {
		return err
	}

	op, ok := isa.OpByName(mnem)
	if !ok {
		return &Error{Line: n, Msg: fmt.Sprintf("unknown instruction %q", mnem)}
	}
	return a.real(n, op, ops, mask)
}

// need reports an operand-count error.
func need(n int, mnem string, want int, ops []string) error {
	return &Error{Line: n, Msg: fmt.Sprintf("%s expects %d operand(s), got %d", mnem, want, len(ops))}
}

func (a *assembler) real(n int, op isa.Op, ops []string, mask uint8) error {
	info := isa.Lookup(op)
	if mask != 0 && !info.ReadsMask {
		return &Error{Line: n, Msg: fmt.Sprintf("%s does not accept a mask", info.Name)}
	}
	syntax := op.Syntax()
	if len(ops) != len(syntax) {
		return need(n, info.Name, len(syntax), ops)
	}
	reg := func(kind isa.RegKind, tok string) (uint8, error) {
		r, ok := parseReg(kind, tok)
		if !ok {
			return 0, &Error{Line: n, Msg: fmt.Sprintf("%s: expected %v register, got %q", info.Name, kind, tok)}
		}
		return r, nil
	}
	in := isa.Inst{Op: op, Mask: mask}
	for i, o := range syntax {
		tok := ops[i]
		var err error
		switch o.Field {
		case isa.FieldRd:
			in.Rd, err = reg(o.Kind, tok)
		case isa.FieldRa:
			in.Ra, err = reg(o.Kind, tok)
		case isa.FieldRb:
			if r, ok := parseReg(isa.KindScalar, tok); ok && o.Broadcast {
				in.Rb, in.SB = r, true
			} else {
				in.Rb, err = reg(o.Kind, tok)
			}
		case isa.FieldImm:
			if o.Label {
				in.Imm, err = a.immOrLabel(n, len(a.prog.Insts), tok)
			} else {
				var v int64
				v, err = a.evalInt(n, tok)
				in.Imm = int32(v)
			}
		case isa.FieldMem:
			in.Ra, in.Imm, err = a.memOperand(n, o.Kind, tok)
		}
		if err != nil {
			return err
		}
	}
	a.emit(n, in)
	return nil
}

// memOperand parses "imm(reg)" or "(reg)" or "imm".
func (a *assembler) memOperand(n int, kind isa.RegKind, tok string) (reg uint8, imm int32, err error) {
	open := strings.Index(tok, "(")
	if open < 0 {
		v, err := a.evalInt(n, tok)
		return 0, int32(v), err
	}
	if !strings.HasSuffix(tok, ")") {
		return 0, 0, &Error{Line: n, Msg: fmt.Sprintf("malformed memory operand %q", tok)}
	}
	immTok := strings.TrimSpace(tok[:open])
	regTok := strings.TrimSpace(tok[open+1 : len(tok)-1])
	if immTok != "" {
		v, e := a.evalInt(n, immTok)
		if e != nil {
			return 0, 0, e
		}
		imm = int32(v)
	}
	r, ok := parseReg(kind, regTok)
	if !ok {
		return 0, 0, &Error{Line: n, Msg: fmt.Sprintf("expected %v base register in %q", kind, tok)}
	}
	return r, imm, nil
}

// pseudo expands pseudo-instructions. Returns handled=false if mnem is not a
// pseudo-op.
func (a *assembler) pseudo(n int, mnem string, ops []string, mask uint8) (bool, error) {
	switch mnem {
	case "li": // li sX, imm  ->  addi sX, s0, imm (wide values via lui+ori)
		if len(ops) != 2 {
			return true, need(n, mnem, 2, ops)
		}
		rd, ok := parseReg(isa.KindScalar, ops[0])
		if !ok {
			return true, &Error{Line: n, Msg: fmt.Sprintf("li: bad register %q", ops[0])}
		}
		// Label or constant?
		if isIdent(ops[1]) {
			if _, isEqu := a.equs[ops[1]]; !isEqu {
				idx := len(a.prog.Insts)
				a.emit(n, isa.Inst{Op: isa.ADDI, Rd: rd})
				_, err := a.immOrLabel(n, idx, ops[1])
				return true, err
			}
		}
		v, err := a.evalInt(n, ops[1])
		if err != nil {
			return true, err
		}
		if v >= isa.MinImm16 && v <= isa.MaxImm16 {
			a.emit(n, isa.Inst{Op: isa.ADDI, Rd: rd, Imm: int32(v)})
			return true, nil
		}
		// Wide constants: build the 32-bit pattern from 15-bit chunks with
		// shift-or steps. Every immediate is non-negative and <= 0x7fff,
		// which sidesteps sign extension at any data width (ORI's imm16 is
		// sign-extended by the machine, so bit 15 must stay clear).
		if v < -(1<<31) || v > 1<<32-1 {
			return true, &Error{Line: n, Msg: fmt.Sprintf("li value %d does not fit 32 bits", v)}
		}
		p := uint32(v)
		chunks := []uint32{p >> 30, p >> 15 & 0x7fff, p & 0x7fff}
		started := false
		for i, ch := range chunks {
			if !started {
				if ch == 0 && i < len(chunks)-1 {
					continue
				}
				a.emit(n, isa.Inst{Op: isa.ADDI, Rd: rd, Imm: int32(ch)})
				started = true
				continue
			}
			a.emit(n, isa.Inst{Op: isa.SLLI, Rd: rd, Ra: rd, Imm: 15})
			if ch != 0 {
				a.emit(n, isa.Inst{Op: isa.ORI, Rd: rd, Ra: rd, Imm: int32(ch)})
			}
		}
		return true, nil

	case "mov": // mov sX, sY -> add sX, sY, s0
		if len(ops) != 2 {
			return true, need(n, mnem, 2, ops)
		}
		rd, ok1 := parseReg(isa.KindScalar, ops[0])
		ra, ok2 := parseReg(isa.KindScalar, ops[1])
		if !ok1 || !ok2 {
			return true, &Error{Line: n, Msg: "mov: expects two scalar registers"}
		}
		a.emit(n, isa.Inst{Op: isa.ADD, Rd: rd, Ra: ra})
		return true, nil

	case "pmov": // pmov pX, pY | pmov pX, sY  -> por pX, p0, {pY|sY}
		if len(ops) != 2 {
			return true, need(n, mnem, 2, ops)
		}
		rd, ok := parseReg(isa.KindParallel, ops[0])
		if !ok {
			return true, &Error{Line: n, Msg: "pmov: first operand must be a parallel register"}
		}
		if rb, ok := parseReg(isa.KindParallel, ops[1]); ok {
			a.emit(n, isa.Inst{Op: isa.POR, Rd: rd, Rb: rb, Mask: mask})
			return true, nil
		}
		if rb, ok := parseReg(isa.KindScalar, ops[1]); ok {
			a.emit(n, isa.Inst{Op: isa.POR, Rd: rd, Rb: rb, SB: true, Mask: mask})
			return true, nil
		}
		return true, &Error{Line: n, Msg: "pmov: second operand must be a parallel or scalar register"}

	case "beqz", "bnez": // beqz sX, target -> beq sX, s0, target
		if len(ops) != 2 {
			return true, need(n, mnem, 2, ops)
		}
		op := isa.BEQ
		if mnem == "bnez" {
			op = isa.BNE
		}
		return true, a.real(n, op, []string{ops[0], "s0", ops[1]}, 0)

	case "ble", "bgt", "bleu", "bgtu": // swap operands of bge/blt
		if len(ops) != 3 {
			return true, need(n, mnem, 3, ops)
		}
		var op isa.Op
		switch mnem {
		case "ble":
			op = isa.BGE
		case "bgt":
			op = isa.BLT
		case "bleu":
			op = isa.BGEU
		case "bgtu":
			op = isa.BLTU
		}
		return true, a.real(n, op, []string{ops[1], ops[0], ops[2]}, 0)

	case "call": // call target -> jal target
		if len(ops) != 1 {
			return true, need(n, mnem, 1, ops)
		}
		return true, a.real(n, isa.JAL, ops, 0)

	case "ret": // ret -> jr s15
		if len(ops) != 0 {
			return true, need(n, mnem, 0, ops)
		}
		return true, a.real(n, isa.JR, []string{"s15"}, 0)

	case "inc", "dec": // inc sX -> addi sX, sX, ±1
		if len(ops) != 1 {
			return true, need(n, mnem, 1, ops)
		}
		rd, ok := parseReg(isa.KindScalar, ops[0])
		if !ok {
			return true, &Error{Line: n, Msg: mnem + ": expects a scalar register"}
		}
		imm := int32(1)
		if mnem == "dec" {
			imm = -1
		}
		a.emit(n, isa.Inst{Op: isa.ADDI, Rd: rd, Ra: rd, Imm: imm})
		return true, nil
	}
	return false, nil
}

// Disassemble renders a program listing with addresses and labels.
func Disassemble(p *Program) string {
	byAddr := make(map[int][]string)
	for name, addr := range p.Labels {
		byAddr[addr] = append(byAddr[addr], name)
	}
	var b strings.Builder
	for i, in := range p.Insts {
		for _, l := range byAddr[i] {
			fmt.Fprintf(&b, "%s:\n", l)
		}
		fmt.Fprintf(&b, "%4d: %08x  %s\n", i, p.Words[i], in)
	}
	return b.String()
}
