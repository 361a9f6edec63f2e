package asm

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/isa"
)

// FuzzAssemble: the assembler must never panic on arbitrary input, and the
// listing of whatever it accepts must assemble back to the same instructions.
func FuzzAssemble(f *testing.F) {
	seeds := []string{
		"add s1, s2, s3",
		"padd p1, p2, s3 ?f2",
		".data\n.word 1, 2\n.text\nj x\nx: halt",
		"li s1, 0x12345",
		"lw s1, 4(s2)",
		"?? ?? ::",
		".equ N -3\naddi s1, s0, N",
		"label: label2: nop",
		"\x00\xff garbage",
		"sw s1, (s2",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Assemble(src)
		if err != nil {
			return
		}
		// Successful assembly must produce decodable words.
		for i, w := range prog.Words {
			if _, derr := isa.Decode(w); derr != nil {
				t.Fatalf("emitted undecodable word %d: %#08x (%v)", i, w, derr)
			}
		}
		var listing strings.Builder
		for _, in := range prog.Insts {
			listing.WriteString(in.String())
			listing.WriteByte('\n')
		}
		again, err := Assemble(listing.String())
		if err != nil {
			t.Fatalf("listing does not reassemble: %v\n%s", err, listing.String())
		}
		if !slices.Equal(again.Insts, prog.Insts) {
			t.Fatalf("listing reassembles to %v, want %v", again.Insts, prog.Insts)
		}
	})
}

// FuzzDecode: Decode must never panic, and it accepts exactly the
// encodings of instructions: an accepted word re-encodes to itself, the
// listing of a valid one assembles back to it, and each register it reads
// is in the file its Syntax operand names.
func FuzzDecode(f *testing.F) {
	f.Add(uint32(0))
	f.Add(uint32(0xffffffff))
	f.Add(uint32(0x02123000))
	f.Add(uint32(0x43356100))
	f.Add(uint32(0x43f56000)) // fand f15, f5, f6
	for op := isa.Op(0); int(op) < isa.NumOps; op++ {
		w, _ := isa.Inst{Op: op, Rd: 7, Ra: 7, Rb: 7, Mask: 7, SB: true, Imm: -1}.Encode()
		f.Add(w)
	}
	f.Fuzz(func(t *testing.T, w uint32) {
		in, err := isa.Decode(w)
		if err != nil {
			return
		}
		if w2, err := in.Encode(); err != nil || w2 != w {
			t.Fatalf("decoded %#08x to %v, which re-encodes to %#08x (%v)", w, in, w2, err)
		}
		// The listing of any word that decodes reassembles to it.
		p, err := Assemble(in.String())
		if err != nil {
			t.Fatalf("listing %q of %#08x does not assemble: %v", in, w, err)
		}
		if len(p.Words) != 1 || p.Words[0] != w {
			t.Fatalf("listing %q of %#08x assembles to %#08x", in, w, p.Words)
		}
		info := in.Info()
		for _, r := range in.Reads(nil) {
			if !readBySyntax(in, info, r) {
				t.Fatalf("%v (%#08x) reads %v, which no operand of its syntax names", in, w, r)
			}
		}
	})
}

// readBySyntax reports whether r is the gating mask or the register of one
// of in's source operands, in the file the operand names: its own, or the
// scalar file for a Broadcast operand with SB set.
func readBySyntax(in isa.Inst, info isa.Info, r isa.RegRef) bool {
	if info.ReadsMask && in.Mask != 0 && r == (isa.RegRef{Kind: isa.KindFlag, Idx: in.Mask}) {
		return true
	}
	for _, o := range in.Op.Syntax() {
		kind := o.Kind
		if o.Broadcast && in.SB {
			kind = isa.KindScalar
		}
		var idx uint8
		switch o.Field {
		case isa.FieldRd:
			if info.DstKind != isa.KindNone {
				continue // a destination, not a source
			}
			idx = in.Rd
		case isa.FieldRa, isa.FieldMem:
			idx = in.Ra
		case isa.FieldRb:
			idx = in.Rb
		default:
			continue
		}
		if r == (isa.RegRef{Kind: kind, Idx: idx}) {
			return true
		}
	}
	return false
}
