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
	SB   bool  // FormatPR only: operand B is a scalar register, broadcast to PEs
	Imm  int32 // sign-extended immediate (FormatI: 16-bit; FormatPI: 13-bit; FormatJ: 24-bit target)
}

// Info returns the opcode metadata.
func (in Inst) Info() Info { return Lookup(in.Op) }

// SrcBIsScalar reports whether operand B reads the scalar register file:
// either the opcode is scalar-class, or a parallel op with the SB
// (scalar broadcast) bit set.
func (in Inst) SrcBIsScalar() bool {
	info := in.Info()
	if info.SrcBKind == KindNone {
		return false
	}
	if info.Format == FormatPR && in.SB {
		return true
	}
	return info.SrcBKind == KindScalar
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
			if in.SrcBIsScalar() {
				return regName(KindScalar, in.Rb)
			}
			return regName(o.Kind, in.Rb)
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
// result. Hardwired registers (s0, p0, f0) are included; callers that track
// dependences should skip index 0 themselves if they model the hardwiring.
// The gating mask flag is included when it is not f0.
func (in Inst) Reads(dst []RegRef) []RegRef {
	info := in.Info()
	switch {
	case info.IsBranch:
		dst = append(dst, RegRef{KindScalar, in.Rd}, RegRef{KindScalar, in.Ra})
	case info.IsStore:
		valKind := KindScalar
		if info.Class == ClassParallel {
			valKind = KindParallel
		}
		dst = append(dst, RegRef{info.SrcAKind, in.Ra}, RegRef{valKind, in.Rd})
	default:
		if info.SrcAKind != KindNone {
			dst = append(dst, RegRef{info.SrcAKind, in.Ra})
		}
		if info.SrcBKind != KindNone {
			kind := info.SrcBKind
			if in.SrcBIsScalar() {
				kind = KindScalar
			}
			dst = append(dst, RegRef{kind, in.Rb})
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

// Binary encoding layout (32-bit word):
//
//	FormatN:  op[31:24]
//	FormatR:  op[31:24] rd[23:20] ra[19:16] rb[15:12]
//	FormatPR: op[31:24] rd[23:20] ra[19:16] rb[15:12] mask[11:9] sb[8]
//	FormatI:  op[31:24] rd[23:20] ra[19:16] imm16[15:0]
//	FormatPI: op[31:24] rd[23:20] ra[19:16] mask[15:13] imm13[12:0]
//	FormatJ:  op[31:24] target24[23:0]
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

// Encode packs the instruction into a 32-bit word.
func (in Inst) Encode() (uint32, error) {
	info := in.Info()
	w := uint32(in.Op) << 24
	checkReg := func(name string, v uint8, limit uint8) error {
		if v >= limit {
			return &EncodeError{Inst: in, Field: name, Value: int64(v)}
		}
		return nil
	}
	if err := checkReg("rd", in.Rd, 16); err != nil {
		return 0, err
	}
	if err := checkReg("ra", in.Ra, 16); err != nil {
		return 0, err
	}
	if err := checkReg("rb", in.Rb, 16); err != nil {
		return 0, err
	}
	if err := checkReg("mask", in.Mask, 8); err != nil {
		return 0, err
	}
	switch info.Format {
	case FormatN:
		// opcode only
	case FormatR:
		w |= uint32(in.Rd)<<20 | uint32(in.Ra)<<16 | uint32(in.Rb)<<12
	case FormatPR:
		w |= uint32(in.Rd)<<20 | uint32(in.Ra)<<16 | uint32(in.Rb)<<12 | uint32(in.Mask)<<9
		if in.SB {
			w |= 1 << 8
		}
	case FormatI:
		if in.Imm < MinImm16 || in.Imm > MaxImm16 {
			return 0, &EncodeError{Inst: in, Field: "imm16", Value: int64(in.Imm)}
		}
		w |= uint32(in.Rd)<<20 | uint32(in.Ra)<<16 | uint32(uint16(in.Imm))
	case FormatPI:
		if in.Imm < MinImm13 || in.Imm > MaxImm13 {
			return 0, &EncodeError{Inst: in, Field: "imm13", Value: int64(in.Imm)}
		}
		w |= uint32(in.Rd)<<20 | uint32(in.Ra)<<16 | uint32(in.Mask)<<13 | (uint32(in.Imm) & 0x1fff)
	case FormatJ:
		if in.Imm < MinImm24 || in.Imm > MaxImm24 {
			return 0, &EncodeError{Inst: in, Field: "imm24", Value: int64(in.Imm)}
		}
		w |= uint32(in.Imm) & 0xffffff
	}
	return w, nil
}

// Decode unpacks a 32-bit word into an instruction.
func Decode(w uint32) (Inst, error) {
	op := Op(w >> 24)
	if !Valid(op) {
		return Inst{}, fmt.Errorf("isa: invalid opcode %d in word %#08x", uint8(op), w)
	}
	info := infos[op]
	in := Inst{Op: op}
	switch info.Format {
	case FormatN:
	case FormatR:
		in.Rd = uint8(w >> 20 & 0xf)
		in.Ra = uint8(w >> 16 & 0xf)
		in.Rb = uint8(w >> 12 & 0xf)
	case FormatPR:
		in.Rd = uint8(w >> 20 & 0xf)
		in.Ra = uint8(w >> 16 & 0xf)
		in.Rb = uint8(w >> 12 & 0xf)
		in.Mask = uint8(w >> 9 & 0x7)
		in.SB = w>>8&1 == 1
	case FormatI:
		in.Rd = uint8(w >> 20 & 0xf)
		in.Ra = uint8(w >> 16 & 0xf)
		in.Imm = int32(int16(uint16(w))) // sign-extend 16 bits
	case FormatPI:
		in.Rd = uint8(w >> 20 & 0xf)
		in.Ra = uint8(w >> 16 & 0xf)
		in.Mask = uint8(w >> 13 & 0x7)
		in.Imm = int32(w&0x1fff) << 19 >> 19 // sign-extend 13 bits
	case FormatJ:
		in.Imm = int32(w&0xffffff) << 8 >> 8 // sign-extend 24 bits
	}
	return in, nil
}

// Canonical clears fields that are not part of op's format so that an
// arbitrary Inst compares equal to its encode/decode round trip. It is used
// by property tests and by the assembler to normalize emitted instructions.
func (in Inst) Canonical() Inst {
	info := in.Info()
	out := Inst{Op: in.Op}
	switch info.Format {
	case FormatN:
	case FormatR:
		out.Rd, out.Ra, out.Rb = in.Rd, in.Ra, in.Rb
	case FormatPR:
		out.Rd, out.Ra, out.Rb, out.Mask, out.SB = in.Rd, in.Ra, in.Rb, in.Mask&7, in.SB
	case FormatI:
		out.Rd, out.Ra, out.Imm = in.Rd, in.Ra, in.Imm
	case FormatPI:
		out.Rd, out.Ra, out.Mask, out.Imm = in.Rd, in.Ra, in.Mask&7, in.Imm
	case FormatJ:
		out.Imm = in.Imm
	}
	return out
}
