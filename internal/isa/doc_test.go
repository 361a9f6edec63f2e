package isa

import (
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func TestReferenceCoversEveryOpcode(t *testing.T) {
	ref := Reference()
	for op := Op(0); int(op) < NumOps; op++ {
		needle := "`" + Lookup(op).Name + "`"
		if !strings.Contains(ref, needle) {
			t.Errorf("reference missing %s", needle)
		}
	}
	for _, frag := range []string{"## Encodings", "## Instructions", "Pseudo-instructions", "Reduction timing"} {
		if !strings.Contains(ref, frag) {
			t.Errorf("reference missing section %q", frag)
		}
	}
}

// TestReferenceMatchesDocs keeps the committed docs/ISA.md in step with
// Reference; regenerate it with `go run ./cmd/ascasm -isadoc > docs/ISA.md`.
func TestReferenceMatchesDocs(t *testing.T) {
	doc, err := os.ReadFile("../../docs/ISA.md")
	if err != nil {
		t.Fatal(err)
	}
	if string(doc) != Reference() {
		t.Error("docs/ISA.md is stale: regenerate it with `go run ./cmd/ascasm -isadoc > docs/ISA.md`")
	}
}

// TestEncodingsTableMatchesEncode checks each row of the reference's
// hand-written Encodings table against Encode. For every opcode of the
// row's format, setting a listed field to all ones sets exactly the row's
// bits for it, or none when the opcode does not use the field; some opcode
// uses each listed field; and no opcode sets a bit the row does not list.
// A register field is set to the top register of its operand's file, so
// a flag operand leaves the field's top bit clear.
func TestEncodingsTableMatchesEncode(t *testing.T) {
	ref := Reference()
	table := ref[strings.Index(ref, "## Encodings"):strings.Index(ref, "## Instructions")]
	formats := map[string]Format{"N": FormatN, "R": FormatR, "PR": FormatPR, "I": FormatI, "PI": FormatPI, "J": FormatJ}
	// top is the highest register op's operand in field f may name; 15
	// when op has no such operand (Encode drops the field).
	top := func(op Op, f Field) uint8 {
		for _, o := range op.Syntax() {
			if o.Field == f || f == FieldRa && o.Field == FieldMem {
				return regFileSize(o.Kind) - 1
			}
		}
		return 15
	}
	regs := map[string]Field{"rd": FieldRd, "ra": FieldRa, "rb": FieldRb}
	ones := map[string]func(*Inst){
		"rd":       func(in *Inst) { in.Rd = top(in.Op, FieldRd) },
		"ra":       func(in *Inst) { in.Ra = top(in.Op, FieldRa) },
		"rb":       func(in *Inst) { in.Rb = top(in.Op, FieldRb) },
		"mask":     func(in *Inst) { in.Mask = 7 },
		"sb":       func(in *Inst) { in.SB = true },
		"imm16":    func(in *Inst) { in.Imm = -1 },
		"imm13":    func(in *Inst) { in.Imm = -1 },
		"target24": func(in *Inst) { in.Imm = -1 },
	}
	encode := func(in Inst) uint32 {
		w, err := in.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	field := regexp.MustCompile(`(\w+)\[(\d+)(?::(\d+))?\]`)
	rows := 0
	for _, line := range strings.Split(table, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) != 4 {
			continue
		}
		format, ok := formats[strings.TrimSpace(cells[1])]
		if !ok {
			continue
		}
		rows++
		var ops []Op
		for op := Op(0); op < numOps; op++ {
			if infos[op].Format == format {
				ops = append(ops, op)
			}
		}
		listed := uint32(0xff000000)
		for _, m := range field.FindAllStringSubmatch(cells[2], -1) {
			hi, _ := strconv.Atoi(m[2])
			lo := hi
			if m[3] != "" {
				lo, _ = strconv.Atoi(m[3])
			}
			bits := uint32(uint64(1)<<(hi+1) - 1<<lo)
			if m[1] == "op" {
				if bits != 0xff000000 {
					t.Errorf("%s: op at %s, want op[31:24]", cells[1], m[0])
				}
				continue
			}
			set, ok := ones[m[1]]
			if !ok {
				t.Errorf("%s: unknown field %s", cells[1], m[0])
				continue
			}
			used := false
			for _, op := range ops {
				in := Inst{Op: op}
				set(&in)
				want := bits
				if f, ok := regs[m[1]]; ok {
					want = uint32(top(op, f)) << lo
				}
				switch diff := encode(in) ^ encode(Inst{Op: op}); diff {
				case 0:
				case want:
					used = used || want == bits
				default:
					t.Errorf("%s: setting %s of %s sets bits %#08x, want %#08x", cells[1], m[1], op, diff, want)
				}
			}
			if !used {
				t.Errorf("%s: no opcode of the format uses %s", cells[1], m[0])
			}
			listed |= bits
		}
		for _, op := range ops {
			w := encode(Inst{Op: op, Rd: top(op, FieldRd), Ra: top(op, FieldRa), Rb: top(op, FieldRb), Mask: 7, SB: true, Imm: -1})
			if w&^listed != 0 {
				t.Errorf("%s: %s sets bits %#08x the row does not list", cells[1], op, w&^listed)
			}
		}
	}
	if rows != len(formats) {
		t.Errorf("Encodings table has %d format rows, want %d", rows, len(formats))
	}
}
