package isa

import "strings"

// Field names the Inst field an assembly operand fills.
type Field uint8

const (
	FieldRd  Field = iota // Rd; a store's value or a branch's first comparand
	FieldRa               // Ra
	FieldRb               // Rb; a broadcast scalar also sets SB
	FieldImm              // Imm
	FieldMem              // Imm and Ra, written imm(ra)
)

// Operand is one operand of an instruction's assembly form.
type Operand struct {
	Field Field
	// Kind is the register file the operand names; for FieldMem, the base
	// register's. KindNone for FieldImm.
	Kind RegKind
	// Label: a code label may stand for the immediate.
	Label bool
	// Broadcast: a scalar register may stand for this parallel operand.
	Broadcast bool
}

var syntax = func() (s [numOps][]Operand) {
	for op := Op(0); op < numOps; op++ {
		s[op] = operands(op, infos[op])
	}
	return s
}()

// Syntax returns op's assembly operands in source order. The assembler
// parses them, Inst.String prints them and Reference documents them; a
// parallel, flag or reduction op may also take a trailing "?fN" mask.
func (op Op) Syntax() []Operand { return syntax[op] }

func operands(op Op, info Info) []Operand {
	if info.Format == FormatJ {
		return []Operand{{Field: FieldImm, Label: true}} // JAL's link register is implicit
	}
	var s []Operand
	reg := func(f Field, k RegKind) {
		if k != KindNone {
			s = append(s, Operand{Field: f, Kind: k})
		}
	}
	rd := info.DstKind
	if info.IsStore || info.IsBranch {
		rd = info.SrcAKind // the rd field carries a second source
	}
	reg(FieldRd, rd)
	if info.IsLoad || info.IsStore {
		return append(s, Operand{Field: FieldMem, Kind: info.SrcAKind})
	}
	reg(FieldRa, info.SrcAKind)
	switch info.Format {
	case FormatR, FormatPR:
		reg(FieldRb, info.SrcBKind)
		if info.Format == FormatPR && info.SrcBKind == KindParallel {
			s[len(s)-1].Broadcast = true
		}
	case FormatI, FormatPI:
		// lui's immediate is an upper-half constant and FormatPI's are PE
		// data, so neither is a code address.
		s = append(s, Operand{Field: FieldImm, Label: info.Format == FormatI && op != LUI})
	}
	return s
}

// listing joins op's mnemonic and its operands as arg renders each.
func listing(op Op, arg func(Operand) string) string {
	var b strings.Builder
	b.WriteString(op.String())
	for i, o := range op.Syntax() {
		if i == 0 {
			b.WriteByte(' ')
		} else {
			b.WriteString(", ")
		}
		b.WriteString(arg(o))
	}
	return b.String()
}
