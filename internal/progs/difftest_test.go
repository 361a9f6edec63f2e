package progs

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
)

// digest extracts the stored result words.
func digest(mem func(int) int64) [8]int64 {
	var d [8]int64
	for i := range d {
		d[i] = mem(i)
	}
	return d
}

// TestDifferentialKernels: the kernel suite digested across models (already
// covered one by one elsewhere; this asserts the whole-suite invariant in
// one place, including SMT and structural shapes).
func TestDifferentialKernels(t *testing.T) {
	const pes = 16
	for _, ins := range Suite(pes, 123) {
		prog, err := asm.Assemble(ins.Source)
		if err != nil {
			t.Fatal(err)
		}
		run := func(cfg core.Config) func(int) int64 {
			p, err := core.New(cfg, prog.Insts)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Machine().LoadLocalMem(ins.LocalMem); err != nil {
				t.Fatal(err)
			}
			if err := p.Machine().LoadScalarMem(ins.ScalarMem); err != nil {
				t.Fatal(err)
			}
			if _, err := p.Run(50_000_000); err != nil {
				t.Fatalf("%s: %v", ins.Name, err)
			}
			return p.Machine().ScalarMem
		}
		base := digest(run(core.Config{Machine: ins.MachineConfig(pes, 1), Arity: 4}))
		smt := digest(run(core.Config{Machine: ins.MachineConfig(pes, 2), Arity: 4, SMT: true}))
		if base != smt {
			t.Errorf("%s: SMT digest %v != base %v", ins.Name, smt, base)
		}
	}
}
