package isa

import "fmt"

// Inst is a decoded instruction. It is the unit the assembler emits and the
// simulator executes. The zero value is NOP.
type Inst struct {
	Op   Op
	Rd   uint8 // destination register index (meaning depends on DstKind)
	Ra   uint8 // source A register index
	Rb   uint8 // source B register index
	Mask uint8 // flag register gating parallel/reduction execution (0 = all PEs)
	SB   bool  // a Broadcast operand B names a scalar register, broadcast to PEs
	Imm  int32 // sign-extended immediate (FormatI: 16-bit; FormatPI: 13-bit; FormatJ: 24-bit target)
}

// Info returns the opcode metadata.
func (in Inst) Info() Info { return Lookup(in.Op) }

// kind returns the register file o names in this instruction: a Broadcast
// operand names the scalar file when SB is set.
func (in Inst) kind(o Operand) RegKind {
	if o.Broadcast && in.SB {
		return KindScalar
	}
	return o.Kind
}

// regName formats a register index for a given kind.
func regName(kind RegKind, idx uint8) string {
	switch kind {
	case KindScalar:
		return fmt.Sprintf("s%d", idx)
	case KindParallel:
		return fmt.Sprintf("p%d", idx)
	case KindFlag:
		return fmt.Sprintf("f%d", idx)
	default:
		return "?"
	}
}

// String renders the instruction in assembler syntax.
func (in Inst) String() string {
	info := in.Info()
	s := listing(in.Op, func(o Operand) string {
		switch o.Field {
		case FieldRd:
			return regName(o.Kind, in.Rd)
		case FieldRa:
			return regName(o.Kind, in.Ra)
		case FieldRb:
			return regName(in.kind(o), in.Rb)
		case FieldMem:
			return fmt.Sprintf("%d(%s)", in.Imm, regName(o.Kind, in.Ra))
		}
		return fmt.Sprintf("%d", in.Imm)
	})
	if info.ReadsMask && in.Mask != 0 {
		s += fmt.Sprintf(" ?f%d", in.Mask)
	}
	return s
}

// RegRef names one architectural register.
type RegRef struct {
	Kind RegKind
	Idx  uint8
}

func (r RegRef) String() string { return regName(r.Kind, r.Idx) }

// Reads appends the registers this instruction reads to dst and returns the
// result: its register operands in source order, a memory operand's base
// first, and the rd operand only when it is a source (a store's value or a
// branch's comparand). Hardwired registers (s0, p0, f0) are included;
// callers that track dependences should skip index 0 themselves if they
// model the hardwiring. The gating mask flag is included when it is not f0.
func (in Inst) Reads(dst []RegRef) []RegRef {
	info := in.Info()
	ops := in.Op.Syntax()
	if n := len(ops); n > 0 && ops[n-1].Field == FieldMem {
		dst = append(dst, RegRef{ops[n-1].Kind, in.Ra})
		ops = ops[:n-1]
	}
	for _, o := range ops {
		switch {
		case o.Field == FieldRd && info.DstKind == KindNone:
			dst = append(dst, RegRef{o.Kind, in.Rd})
		case o.Field == FieldRa:
			dst = append(dst, RegRef{o.Kind, in.Ra})
		case o.Field == FieldRb:
			dst = append(dst, RegRef{in.kind(o), in.Rb})
		}
	}
	if info.ReadsMask && in.Mask != 0 {
		dst = append(dst, RegRef{KindFlag, in.Mask})
	}
	return dst
}

// Writes returns the register this instruction writes, if any.
func (in Inst) Writes() (RegRef, bool) {
	info := in.Info()
	if info.DstKind == KindNone {
		return RegRef{}, false
	}
	if in.Op == JAL {
		return RegRef{KindScalar, LinkReg}, true
	}
	return RegRef{info.DstKind, in.Rd}, true
}

// keep holds, per opcode, an Inst whose fields the opcode uses are all ones
// (SB true) and whose other fields are zero: the operands of Op.Syntax plus
// the mask of a masked op. SB is kept only beside a Broadcast operand.
var keep = func() (k [numOps]Inst) {
	for op := range k {
		kp := &k[op]
		for _, o := range Op(op).Syntax() {
			switch o.Field {
			case FieldRd:
				kp.Rd = 0xff
			case FieldRa:
				kp.Ra = 0xff
			case FieldRb:
				kp.Rb, kp.SB = 0xff, o.Broadcast
			case FieldImm:
				kp.Imm = -1
			case FieldMem:
				kp.Ra, kp.Imm = 0xff, -1
			}
		}
		if infos[op].ReadsMask {
			kp.Mask = 0xff
		}
	}
	return k
}()

// Canonical clears the fields op does not use, so that an arbitrary Inst
// compares equal to its encode/decode round trip. The assembler emits and
// DecodeInst executes canonical instructions.
func (in Inst) Canonical() Inst {
	k := &keep[in.Op]
	return Inst{Op: in.Op, Rd: in.Rd & k.Rd, Ra: in.Ra & k.Ra, Rb: in.Rb & k.Rb,
		Mask: in.Mask & k.Mask, SB: in.SB && k.SB, Imm: in.Imm & k.Imm}
}

// layout places the fields that move with the format in a 32-bit word. The
// opcode sits at bits 31:24 and rd, ra and rb at 23:20, 19:16 and 15:12 in
// every format; a field a format has no place for is kept by none of its
// opcodes. The Encodings table of Reference draws each format.
type layout struct {
	maskAt  uint8 // low bit of the 3-bit mask field
	sbAt    uint8 // the SB bit
	immBits uint8 // width of the sign-extended immediate at the low bits
}

var layouts = [...]layout{
	FormatPR: {maskAt: 9, sbAt: 8},
	FormatI:  {immBits: 16},
	FormatPI: {maskAt: 13, immBits: 13},
	FormatJ:  {immBits: 24},
}

const (
	// Immediate ranges.
	MaxImm16 = 1<<15 - 1
	MinImm16 = -(1 << 15)
	MaxImm13 = 1<<12 - 1
	MinImm13 = -(1 << 12)
	MaxImm24 = 1<<23 - 1
	MinImm24 = -(1 << 23)
)

// EncodeError describes a field that does not fit its encoding.
type EncodeError struct {
	Inst  Inst
	Field string
	Value int64
}

func (e *EncodeError) Error() string {
	return fmt.Sprintf("isa: cannot encode %s: field %s value %d out of range", e.Inst, e.Field, e.Value)
}

// RegisterError reports a word whose 4-bit register field names a
// register its operand's file does not have (f8..f15), so that no
// instruction encodes to it.
type RegisterError struct {
	Word  uint32
	Inst  Inst   // the instruction the word's fields hold
	Field string // "rd", "ra" or "rb"
	Value int64
}

func (e *RegisterError) Error() string {
	return fmt.Sprintf("isa: word %#08x (%s): field %s names register %d, outside its file", e.Word, e.Inst, e.Field, e.Value)
}

// StrayBitsError reports a word that sets bits outside the fields its
// opcode uses, so that no instruction encodes to it.
type StrayBitsError struct {
	Word  uint32
	Inst  Inst   // the instruction the word's used fields hold
	Stray uint32 // the bits no field of the opcode accounts for
}

func (e *StrayBitsError) Error() string {
	return fmt.Sprintf("isa: word %#08x (%s) sets stray bits %#08x", e.Word, e.Inst, e.Stray)
}

// badRegister returns the first register operand of the instruction, in
// source order, that its file (Syntax; the scalar file for a broadcast)
// does not have.
func (in Inst) badRegister() (field string, idx uint8, bad bool) {
	for _, o := range in.Op.Syntax() {
		switch o.Field {
		case FieldRd:
			field, idx = "rd", in.Rd
		case FieldRa, FieldMem:
			field, idx = "ra", in.Ra
		case FieldRb:
			field, idx = "rb", in.Rb
		default:
			continue
		}
		if idx >= regFileSize(in.kind(o)) {
			return field, idx, true
		}
	}
	return "", 0, false
}

// Encode packs the canonical form of the instruction into a 32-bit word.
// Only the fields the opcode uses must fit their encoding: each register
// names a register of its operand's file, the mask a flag register, and
// the immediate fits its width.
func (in Inst) Encode() (uint32, error) {
	c := in.Canonical()
	l := layouts[c.Info().Format]
	sh := 32 - l.immBits // the immediate fits if sign-extending its low bits restores it
	field, v := "", int64(0)
	if f, idx, bad := c.badRegister(); bad {
		field, v = f, int64(idx)
	} else if c.Mask >= NumFlagRegs {
		field, v = "mask", int64(c.Mask)
	} else if c.Imm<<sh>>sh != c.Imm {
		field, v = fmt.Sprintf("imm%d", l.immBits), int64(c.Imm)
	}
	if field != "" {
		return 0, &EncodeError{Inst: in, Field: field, Value: v}
	}
	w := uint32(c.Op)<<24 | uint32(c.Rd)<<20 | uint32(c.Ra)<<16 | uint32(c.Rb)<<12 |
		uint32(c.Mask)<<l.maskAt | uint32(c.Imm)&(1<<l.immBits-1)
	if c.SB {
		w |= 1 << l.sbAt
	}
	return w, nil
}

// Decode unpacks a 32-bit word into a canonical instruction. A word decodes
// if and only if it is the encoding of that instruction: an undefined
// opcode is an error, and so are a register field naming a register its
// file does not have (*RegisterError) and a set bit outside the opcode's
// fields (*StrayBitsError).
func Decode(w uint32) (Inst, error) {
	op := Op(w >> 24)
	if !Valid(op) {
		return Inst{}, fmt.Errorf("isa: invalid opcode %d in word %#08x", uint8(op), w)
	}
	l := layouts[infos[op].Format]
	sh := 32 - l.immBits
	in := Inst{Op: op, Rd: uint8(w >> 20 & 0xf), Ra: uint8(w >> 16 & 0xf), Rb: uint8(w >> 12 & 0xf),
		Mask: uint8(w >> l.maskAt & 7), SB: w>>l.sbAt&1 == 1, Imm: int32(w) << sh >> sh}.Canonical()
	if field, idx, bad := in.badRegister(); bad {
		return Inst{}, &RegisterError{Word: w, Inst: in, Field: field, Value: int64(idx)}
	}
	enc, _ := in.Encode() // every other field cut from a word fits
	if enc != w {
		return Inst{}, &StrayBitsError{Word: w, Inst: in, Stray: w &^ enc}
	}
	return in, nil
}
