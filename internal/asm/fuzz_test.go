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

// FuzzDecode: Decode must never panic, and on success must re-encode to a
// word that decodes identically.
func FuzzDecode(f *testing.F) {
	f.Add(uint32(0))
	f.Add(uint32(0xffffffff))
	f.Add(uint32(0x02123000))
	f.Fuzz(func(t *testing.T, w uint32) {
		in, err := isa.Decode(w)
		if err != nil {
			return
		}
		w2, err := in.Encode()
		if err != nil {
			t.Fatalf("decoded %#08x to %v, which does not re-encode: %v", w, in, err)
		}
		in2, err := isa.Decode(w2)
		if err != nil || in2 != in {
			t.Fatalf("unstable decode: %#08x -> %v -> %#08x -> %v (%v)", w, in, w2, in2, err)
		}
	})
}
