package core

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/machine"
)

// TestStructuralCoSimReductionStream pushes a dense stream of reductions of
// every kind through the structural network bank in lockstep with the
// instruction-level model; any value or latency disagreement fails the run.
func TestStructuralCoSimReductionStream(t *testing.T) {
	src := `
		pidx p1
		paddi p2, p1, -3
		pceq f1, p1, p1   ; all respond
		pclt f2, p1, p2   ; none (idx < idx-3 is false at width 16)
		pcgt f3, p1, s0   ; idx > 0
		rmax s1, p2
		rmin s2, p2
		rmaxu s3, p2
		rminu s4, p2
		rsum s5, p2
		ror s6, p2
		rand s7, p2
		rcount s8, f3
		rany s9, f2
		rfirst f4, f3
		rmax s10, p2 ?f3
		rsum s11, p1 ?f2
		halt
	`
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, pes := range []int{1, 2, 7, 16, 33, 128} {
		p, err := New(Config{
			Machine:            machine.Config{PEs: pes, Threads: 1, Width: 16},
			Arity:              4,
			StructuralNetworks: true,
		}, prog.Insts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run(100000); err != nil {
			t.Errorf("pes=%d: structural co-simulation failed: %v", pes, err)
		}
	}
}

// TestStructuralCoSimMultithreaded interleaves reductions from many threads
// through the shared pipelined units (mode bits travelling with the data),
// the exact scenario the paper pipelines the units for: "threads never
// contend for its use" (section 6.4).
func TestStructuralCoSimMultithreaded(t *testing.T) {
	src := `
		tspawn s9, work
		tspawn s9, work
		tspawn s9, work
	work:
		pidx p1
		tid s4
		li s2, 25
	loop:
		rmax s1, p1
		rsum s3, p1
		rcount s5, f0
		addi s2, s2, -1
		bnez s2, loop
		texit
	`
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{
		Machine:            machine.Config{PEs: 64, Threads: 4, Width: 16},
		Arity:              4,
		StructuralNetworks: true,
	}, prog.Insts)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := p.Run(5_000_000)
	if err != nil {
		t.Fatalf("structural co-simulation failed: %v", err)
	}
	if stats.Reduction < 4*25*3 {
		t.Errorf("only %d reductions co-simulated", stats.Reduction)
	}
}

// TestStructuralCoSimSMT verifies co-simulation under dual issue (only one
// reduction can enter the bank per cycle: the parallel port is single).
func TestStructuralCoSimSMT(t *testing.T) {
	p := build(t, Config{
		Machine:            machine.Config{PEs: 16, Threads: 4, Width: 16},
		Arity:              4,
		SMT:                true,
		StructuralNetworks: true,
	}, smtWorkload)
	if _, err := p.Run(5_000_000); err != nil {
		t.Fatalf("SMT structural co-simulation failed: %v", err)
	}
}

// TestStructuralCoSimCountWraps: at width 8 with 256 and 300 responders the
// response counter's RCOUNT wraps to count mod 256 and RANY is 1, in the
// structural bank and the machine alike.
func TestStructuralCoSimCountWraps(t *testing.T) {
	prog, err := asm.Assemble(`
		pceq f1, p0, p0   ; every PE responds
		rcount s1, f1
		rany s2, f1
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	for _, pes := range []int{256, 300} {
		p, err := New(Config{
			Machine:            machine.Config{PEs: pes, Threads: 1, Width: 8},
			Arity:              4,
			StructuralNetworks: true,
		}, prog.Insts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run(100000); err != nil {
			t.Fatalf("pes=%d: structural co-simulation failed: %v", pes, err)
		}
		m := p.Machine()
		if got, want := m.Scalar(0, 1), int64(pes%256); got != want {
			t.Errorf("pes=%d: rcount = %d, want %d", pes, got, want)
		}
		if got := m.Scalar(0, 2); got != 1 {
			t.Errorf("pes=%d: rany = %d, want 1", pes, got)
		}
	}
}
