package machine

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/isa"
)

// enginePair builds two machines with identical config and program except
// for the engine, and loads both with the same random local memory image.
func enginePair(t *testing.T, r *rand.Rand, cfg Config, prog []isa.Inst) (serial, parallel *Machine) {
	t.Helper()
	scfg, pcfg := cfg, cfg
	scfg.Engine = EngineSerial
	pcfg.Engine = EngineParallel
	serial, err := New(scfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err = New(pcfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(parallel.Close)
	mem := make([][]int64, cfg.PEs)
	for pe := range mem {
		row := make([]int64, scfg.LocalMemWords)
		for w := range row {
			row[w] = r.Int63()
		}
		mem[pe] = row
	}
	if err := serial.LoadLocalMem(mem); err != nil {
		t.Fatal(err)
	}
	if err := parallel.LoadLocalMem(mem); err != nil {
		t.Fatal(err)
	}
	return serial, parallel
}

// TestEngineTrapDeterminism pins the deterministic trap rule: when several
// PEs fault on a parallel memory access, both engines report the lowest
// faulting PE and every non-faulting responder still executes.
func TestEngineTrapDeterminism(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	cfg := Config{PEs: 67, Threads: 1, Width: 16, LocalMemWords: 32}
	// p1 := pe index; f1 := pe >= 50; store with base p1 faults for every
	// responder whose address pe+20 >= 32 — i.e. all of them; lowest is 50.
	prog := []isa.Inst{
		{Op: isa.PIDX, Rd: 1},
		{Op: isa.PCGE, Rd: 1, Ra: 1, Rb: 2, SB: true},
		{Op: isa.PSW, Rd: 1, Ra: 1, Imm: 20, Mask: 1},
	}
	serial, parallel := enginePair(t, r, cfg, prog)
	for _, m := range []*Machine{serial, parallel} {
		m.SetScalar(0, 2, 50)
		if _, err := m.ExecDecoded(0, dec(prog[0])); err != nil {
			t.Fatal(err)
		}
		if _, err := m.ExecDecoded(0, dec(prog[1])); err != nil {
			t.Fatal(err)
		}
		_, err := m.ExecDecoded(0, dec(prog[2]))
		te, ok := err.(*TrapError)
		if !ok {
			t.Fatalf("expected trap, got %v", err)
		}
		want := "PE 50 local store address 70 out of [0, 32)"
		if te.Msg != want {
			t.Fatalf("trap message %q, want %q", te.Msg, want)
		}
	}
	if !bytes.Equal(serial.Snapshot(), parallel.Snapshot()) {
		t.Fatal("post-trap snapshots differ between engines")
	}
}

// TestEngineAutoSelection checks the auto policy: small arrays stay serial;
// the explicit settings always win.
func TestEngineAutoSelection(t *testing.T) {
	nop := []isa.Inst{{Op: isa.NOP}}
	small, err := New(Config{PEs: 16, Engine: EngineAuto}, nop)
	if err != nil {
		t.Fatal(err)
	}
	if small.EngineParallelActive() {
		t.Fatal("auto engine went parallel below the threshold")
	}
	forcedSerial, err := New(Config{PEs: 1024, Engine: EngineSerial}, nop)
	if err != nil {
		t.Fatal(err)
	}
	if forcedSerial.EngineParallelActive() {
		t.Fatal("EngineSerial built a worker pool")
	}
	forced, err := New(Config{PEs: 32, Engine: EngineParallel}, nop)
	if err != nil {
		t.Fatal(err)
	}
	defer forced.Close()
	if !forced.EngineParallelActive() {
		t.Fatal("EngineParallel did not build a worker pool")
	}
	if forced.eng.shard&(forced.eng.shard-1) != 0 {
		t.Fatalf("shard size %d is not a power of two", forced.eng.shard)
	}
	one, err := New(Config{PEs: 1, Engine: EngineParallel}, nop)
	if err != nil {
		t.Fatal(err)
	}
	if one.EngineParallelActive() {
		t.Fatal("1-PE array cannot shard; expected serial fallback")
	}
	bad := Config{PEs: 16, Engine: Engine(9)}
	if err := bad.Validate(); err == nil {
		t.Fatal("Validate accepted unknown engine")
	}
}

// TestExecZeroAlloc verifies the hot paths of both engines run without any
// heap allocation per instruction, for parallel ALU/compare/memory ops and
// for every reduction class.
func TestExecZeroAlloc(t *testing.T) {
	prog := []isa.Inst{{Op: isa.NOP}}
	cases := []struct {
		name string
		in   isa.Inst
	}{
		{"PADD", isa.Inst{Op: isa.PADD, Rd: 3, Ra: 1, Rb: 2}},
		{"PADDI_masked", isa.Inst{Op: isa.PADDI, Rd: 3, Ra: 1, Imm: 5, Mask: 1}},
		{"PMUL_broadcast", isa.Inst{Op: isa.PMUL, Rd: 3, Ra: 1, Rb: 4, SB: true}},
		{"PCLT", isa.Inst{Op: isa.PCLT, Rd: 2, Ra: 1, Rb: 2}},
		{"FANDN", isa.Inst{Op: isa.FANDN, Rd: 2, Ra: 1, Rb: 2}},
		{"PLW", isa.Inst{Op: isa.PLW, Rd: 1, Ra: 0, Imm: 3}},
		{"PSW", isa.Inst{Op: isa.PSW, Rd: 1, Ra: 0, Imm: 3}},
		{"RSUM", isa.Inst{Op: isa.RSUM, Rd: 2, Ra: 1}},
		{"RAND", isa.Inst{Op: isa.RAND, Rd: 2, Ra: 1}},
		{"RMAX", isa.Inst{Op: isa.RMAX, Rd: 2, Ra: 1, Mask: 1}},
		{"RMINU", isa.Inst{Op: isa.RMINU, Rd: 2, Ra: 1}},
		{"RCOUNT", isa.Inst{Op: isa.RCOUNT, Rd: 2, Ra: 1}},
		{"RANY", isa.Inst{Op: isa.RANY, Rd: 2, Ra: 1}},
		{"RFIRST", isa.Inst{Op: isa.RFIRST, Rd: 2, Ra: 1}},
	}
	for _, engine := range []Engine{EngineSerial, EngineParallel} {
		m, err := New(Config{PEs: 256, Threads: 2, Width: 8, LocalMemWords: 64, Engine: engine}, prog)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		// Give the responder flags some structure.
		if _, err := m.ExecDecoded(0, dec(isa.Inst{Op: isa.PIDX, Rd: 1})); err != nil {
			t.Fatal(err)
		}
		m.SetPC(0, 0)
		if _, err := m.ExecDecoded(0, dec(isa.Inst{Op: isa.PCLT, Rd: 1, Ra: 1, Rb: 2})); err != nil {
			t.Fatal(err)
		}
		for _, tc := range cases {
			d := dec(tc.in)
			// Warm up: first dispatches grow worker goroutine stacks.
			for i := 0; i < 100; i++ {
				m.SetPC(0, 0)
				if _, err := m.ExecDecoded(0, d); err != nil {
					t.Fatalf("%v/%s: %v", engine, tc.name, err)
				}
			}
			allocs := testing.AllocsPerRun(200, func() {
				m.SetPC(0, 0)
				if _, err := m.ExecDecoded(0, d); err != nil {
					t.Fatalf("%v/%s: %v", engine, tc.name, err)
				}
			})
			if allocs != 0 {
				t.Errorf("%v/%s: %v allocs per ExecDecoded, want 0", engine, tc.name, allocs)
			}
		}
	}
}
