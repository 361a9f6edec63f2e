package isa

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestEveryOpcodeHasInfo(t *testing.T) {
	for op := Op(0); int(op) < NumOps; op++ {
		info := Lookup(op)
		if info.Name == "" {
			t.Fatalf("opcode %d has no metadata", op)
		}
		if got, ok := OpByName(info.Name); !ok || got != op {
			t.Errorf("OpByName(%q) = %v, %v; want %v", info.Name, got, ok, op)
		}
	}
}

func TestNoDuplicateMnemonics(t *testing.T) {
	seen := map[string]Op{}
	for op := Op(0); int(op) < NumOps; op++ {
		name := Lookup(op).Name
		if prev, dup := seen[name]; dup {
			t.Errorf("mnemonic %q used by both %d and %d", name, prev, op)
		}
		seen[name] = op
	}
}

func TestClassConsistency(t *testing.T) {
	for op := Op(0); int(op) < NumOps; op++ {
		info := Lookup(op)
		switch info.Class {
		case ClassReduction:
			// Reductions write scalar or flag (resolver) and read the array.
			if info.DstKind != KindScalar && info.DstKind != KindFlag {
				t.Errorf("%s: reduction must produce scalar or flag, got %v", info.Name, info.DstKind)
			}
			if !info.ReadsMask {
				t.Errorf("%s: reductions operate on responders and must read the mask", info.Name)
			}
		case ClassParallel:
			if !info.ReadsMask {
				t.Errorf("%s: parallel ops are gated by the mask flag", info.Name)
			}
			if info.DstKind == KindScalar {
				t.Errorf("%s: parallel op cannot write a scalar register", info.Name)
			}
		case ClassScalar:
			if info.DstKind == KindParallel || info.DstKind == KindFlag {
				t.Errorf("%s: scalar op cannot write PE state", info.Name)
			}
		}
	}
}

func TestDecodeInvalidOpcode(t *testing.T) {
	if _, err := Decode(uint32(numOps) << 24); err == nil {
		t.Fatal("Decode accepted an invalid opcode")
	}
	if _, err := Decode(0xff << 24); err == nil {
		t.Fatal("Decode accepted opcode 255")
	}
	if Valid(Op(255)) {
		t.Fatal("Valid(255) = true")
	}
}

func TestEncodeRangeChecks(t *testing.T) {
	cases := []Inst{
		{Op: ADDI, Imm: MaxImm16 + 1},
		{Op: ADDI, Imm: MinImm16 - 1},
		{Op: PADDI, Imm: MaxImm13 + 1},
		{Op: PADDI, Imm: MinImm13 - 1},
		{Op: J, Imm: MaxImm24 + 1},
		{Op: ADD, Rd: 16},
		{Op: PADD, Mask: 8},
	}
	for _, in := range cases {
		if _, err := in.Encode(); err == nil {
			t.Errorf("Encode(%+v) succeeded; want range error", in)
		}
	}
}

func TestEncodeBoundaryValues(t *testing.T) {
	cases := []Inst{
		{Op: ADDI, Rd: 15, Ra: 15, Imm: MaxImm16},
		{Op: ADDI, Imm: MinImm16},
		{Op: PADDI, Rd: 15, Ra: 15, Mask: 7, Imm: MaxImm13},
		{Op: PADDI, Imm: MinImm13},
		{Op: J, Imm: MaxImm24},
		{Op: JAL, Imm: 0},
		{Op: PADD, Rd: 15, Ra: 15, Rb: 15, Mask: 7, SB: true},
	}
	for _, in := range cases {
		w, err := in.Encode()
		if err != nil {
			t.Fatalf("Encode(%v): %v", in, err)
		}
		got, err := Decode(w)
		if err != nil {
			t.Fatalf("Decode(%#08x): %v", w, err)
		}
		if got != in.Canonical() {
			t.Errorf("round trip %v -> %#08x -> %v", in, w, got)
		}
	}
}

// randomInst builds a random instruction whose used fields are encodable;
// the fields its opcode does not use hold arbitrary values.
func randomInst(r *rand.Rand) Inst {
	op := Op(r.Intn(NumOps))
	in := Inst{
		Op:   op,
		Rd:   uint8(r.Intn(256)),
		Ra:   uint8(r.Intn(256)),
		Rb:   uint8(r.Intn(256)),
		Mask: uint8(r.Intn(256)),
		SB:   r.Intn(2) == 1,
		Imm:  int32(r.Uint32()),
	}
	for _, o := range op.Syntax() {
		switch n := regFileSize(in.kind(o)); o.Field {
		case FieldRd:
			in.Rd %= n
		case FieldRa, FieldMem:
			in.Ra %= n
		case FieldRb:
			in.Rb %= n
		}
	}
	if Lookup(op).ReadsMask {
		in.Mask %= 8
	}
	switch Lookup(op).Format {
	case FormatI:
		in.Imm = int32(r.Intn(MaxImm16-MinImm16+1)) + MinImm16
	case FormatPI:
		in.Imm = int32(r.Intn(MaxImm13-MinImm13+1)) + MinImm13
	case FormatJ:
		in.Imm = int32(r.Intn(MaxImm24-MinImm24+1)) + MinImm24
	}
	return in
}

// Property: encoding drops exactly the fields the opcode does not use, and
// decoding restores the rest: Decode(Encode(in)) == in.Canonical().
func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randomInst(r)
		w, err := in.Encode()
		if err != nil {
			t.Logf("encode %+v: %v", in, err)
			return false
		}
		out, err := Decode(w)
		if err != nil {
			t.Logf("decode %#08x: %v", w, err)
			return false
		}
		if out != in.Canonical() {
			t.Logf("%+v -> %#08x -> %+v, want %+v", in, w, out, in.Canonical())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Property: a word decodes if and only if it is the encoding of the
// instruction it decodes to, and that instruction is a valid micro-op. A
// rejected word with a defined opcode either names a register its file
// lacks, which DecodeInst refuses too, or names the bits the encoding
// lacks.
func TestDecodeStability(t *testing.T) {
	f := func(w uint32) bool {
		in, err := Decode(w)
		if err != nil {
			var stray *StrayBitsError
			var reg *RegisterError
			switch {
			case errors.As(err, &reg):
				_, derr := DecodeInst(reg.Inst)
				return derr != nil && uint32(reg.Value) == w>>map[string]int{"rd": 20, "ra": 16, "rb": 12}[reg.Field]&0xf
			case !errors.As(err, &stray):
				return !Valid(Op(w >> 24)) // only an undefined opcode fails otherwise
			}
			enc, eerr := stray.Inst.Encode()
			return eerr == nil && stray.Stray != 0 && enc|stray.Stray == w && enc&stray.Stray == 0
		}
		w2, err := in.Encode()
		if err != nil {
			t.Logf("re-encode %v: %v", in, err)
			return false
		}
		if _, err := DecodeInst(in); err != nil {
			t.Logf("%#08x decodes to %v, which DecodeInst refuses: %v", w, in, err)
			return false
		}
		return w2 == w && in == in.Canonical()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// A register field is bounded by its operand's file, not by its 4 bits:
// fand names flag registers, and the flag file has 8, so f15 neither
// encodes nor decodes.
func TestRegisterFieldBoundedByFile(t *testing.T) {
	_, err := Inst{Op: FAND, Rd: 15, Ra: 5, Rb: 6}.Encode()
	var ee *EncodeError
	if !errors.As(err, &ee) || ee.Field != "rd" || ee.Value != 15 {
		t.Errorf("Encode(fand f15, f5, f6) error = %v, want rd 15 out of range", err)
	}
	_, err = Inst{Op: FAND, Rd: 1, Ra: 5, Rb: 8}.Encode()
	if !errors.As(err, &ee) || ee.Field != "rb" || ee.Value != 8 {
		t.Errorf("Encode(fand f1, f5, f8) error = %v, want rb 8 out of range", err)
	}
	_, err = Decode(0x43f56000)
	var reg *RegisterError
	if !errors.As(err, &reg) || reg.Field != "rd" || reg.Value != 15 || reg.Inst != (Inst{Op: FAND, Rd: 15, Ra: 5, Rb: 6}) {
		t.Errorf("Decode(0x43f56000) error = %v, want a RegisterError for rd 15 of fand f15, f5, f6", err)
	}
	w, err := Inst{Op: FAND, Rd: 7, Ra: 5, Rb: 6}.Encode()
	if err != nil || w != 0x43756000 {
		t.Fatalf("Encode(fand f7, f5, f6) = %#08x, %v", w, err)
	}
	if in, err := Decode(w); err != nil || in != (Inst{Op: FAND, Rd: 7, Ra: 5, Rb: 6}) {
		t.Errorf("Decode(%#08x) = %v, %v", w, in, err)
	}
}

// A flag op's B operand is a flag register, so the SB bit is not part of
// its encoding: Decode rejects fand f3, f5, f6 with SB set (0x43356100),
// and DecodeInst clears a stray SB, so the hazard reads name f6, the
// register the machine reads.
func TestFlagOpSBIsStray(t *testing.T) {
	_, err := Decode(0x43356100)
	var stray *StrayBitsError
	if !errors.As(err, &stray) || stray.Stray != 1<<8 {
		t.Fatalf("Decode(0x43356100) error = %v, want stray bits 0x100", err)
	}
	d, err := DecodeInst(Inst{Op: FAND, Rd: 3, Ra: 5, Rb: 6, SB: true})
	if err != nil {
		t.Fatal(err)
	}
	want := []RegRef{{KindFlag, 5}, {KindFlag, 6}}
	if got := d.Reads[:d.NumReads]; !slices.Equal(got, want) {
		t.Errorf("reads = %v, want %v", got, want)
	}
	if d.Inst.SB {
		t.Error("micro-op keeps SB on a flag op")
	}
}

func TestStringFormats(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: NOP}, "nop"},
		{Inst{Op: ADD, Rd: 1, Ra: 2, Rb: 3}, "add s1, s2, s3"},
		{Inst{Op: ADDI, Rd: 1, Ra: 0, Imm: -5}, "addi s1, s0, -5"},
		{Inst{Op: LW, Rd: 2, Ra: 3, Imm: 8}, "lw s2, 8(s3)"},
		{Inst{Op: SW, Rd: 2, Ra: 3, Imm: 8}, "sw s2, 8(s3)"},
		{Inst{Op: PADD, Rd: 1, Ra: 2, Rb: 3}, "padd p1, p2, p3"},
		{Inst{Op: PADD, Rd: 1, Ra: 2, Rb: 3, SB: true}, "padd p1, p2, s3"},
		{Inst{Op: PADD, Rd: 1, Ra: 2, Rb: 3, Mask: 2}, "padd p1, p2, p3 ?f2"},
		{Inst{Op: PCLT, Rd: 1, Ra: 2, Rb: 3}, "pclt f1, p2, p3"},
		{Inst{Op: RMAX, Rd: 4, Ra: 5, Mask: 1}, "rmax s4, p5 ?f1"},
		{Inst{Op: RFIRST, Rd: 2, Ra: 1}, "rfirst f2, f1"},
		{Inst{Op: PLW, Rd: 1, Ra: 2, Imm: 4}, "plw p1, 4(p2)"},
		{Inst{Op: J, Imm: 12}, "j 12"},
		{Inst{Op: TSPAWN, Rd: 3, Imm: 40}, "tspawn s3, 40"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

// srcBIsScalar reports whether operand B reads the scalar register file:
// either the opcode is scalar-class, or its B operand is a parallel
// register with the SB (scalar broadcast) bit set.
func (in Inst) srcBIsScalar() bool {
	for _, o := range in.Op.Syntax() {
		if o.Field == FieldRb {
			return in.kind(o) == KindScalar
		}
	}
	return false
}

func TestSrcBIsScalar(t *testing.T) {
	if (Inst{Op: PADD, SB: false}).srcBIsScalar() {
		t.Error("PADD without SB should read parallel B")
	}
	if !(Inst{Op: PADD, SB: true}).srcBIsScalar() {
		t.Error("PADD with SB should read scalar B")
	}
	if !(Inst{Op: ADD}).srcBIsScalar() {
		t.Error("scalar ADD reads scalar B")
	}
	if (Inst{Op: RMAX}).srcBIsScalar() {
		t.Error("RMAX has no B operand")
	}
	if (Inst{Op: FAND, SB: true}).srcBIsScalar() {
		t.Error("FAND's B is a flag register, whatever SB says")
	}
}
