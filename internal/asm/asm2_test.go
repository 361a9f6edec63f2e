package asm

import (
	"testing"

	"repro/internal/isa"
)

func TestAsciiDirective(t *testing.T) {
	p, err := Assemble(`
		.data
	msg:
		.ascii "hi!"
		.word 0
		.text
		li s1, msg
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint32{'h', 'i', '!', 0}
	if len(p.Data) != len(want) {
		t.Fatalf("data = %v", p.Data)
	}
	for i, w := range want {
		if p.Data[i] != w {
			t.Errorf("data[%d] = %d, want %d", i, p.Data[i], w)
		}
	}
}

func TestAsciiEscapes(t *testing.T) {
	p, err := Assemble(".data\n.ascii \"a\\n\"")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Data) != 2 || p.Data[1] != '\n' {
		t.Errorf("escape handling: %v", p.Data)
	}
}

func TestAsciiErrors(t *testing.T) {
	if _, err := Assemble(".ascii \"x\""); err == nil {
		t.Error(".ascii outside .data accepted")
	}
	if _, err := Assemble(".data\n.ascii nope"); err == nil {
		t.Error("unquoted .ascii accepted")
	}
}

func TestAssembledWordsDecode(t *testing.T) {
	src := `
		li s1, 7
		padd p1, p2, s1 ?f2
		rmax s3, p1
		beq s1, s3, 0
		halt
	`
	p := MustAssemble(src)
	for i, w := range p.Words {
		in, err := isa.Decode(w)
		if err != nil {
			t.Fatalf("word %d: %v", i, err)
		}
		if in != p.Insts[i] {
			t.Errorf("inst %d: %v != %v", i, in, p.Insts[i])
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := isa.Decode(0xff000000); err == nil {
		t.Error("invalid opcode accepted")
	}
}
