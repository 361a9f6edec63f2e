package machine

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/isa"
)

// dirtySrc mutates every class of architectural state: scalar registers,
// parallel registers, flags, local memory, scalar memory, a spawned thread
// with mailbox traffic, and the halt flag. Its scalar stores reach the
// lowest addresses and the highest of the default 4096 words, so Reset's
// dirty extent must cover the whole span.
const dirtySrc = `
	pidx p1
	padd p2, p1, p1
	pslli p3, p1, 1
	pclt f1, p1, p2
	pandi p5, p1, 31
	psw p2, 0(p5)
	tspawn s1, worker
	tsend s1, s1
	tjoin s1
	rsum s2, p2
	sw s2, 1(s0)
	li s3, 77
	sw s3, 2(s0)
	sw s3, 4095(s0)
	halt
worker:
	trecv s4
	pli p4, 9
	fset f2
	texit
`

// TestResetMatchesFreshSnapshot pins the pool's core contract: after an
// arbitrary run, Reset restores power-on state exactly, so a reset machine
// is snapshot-identical to a freshly constructed one.
func TestResetMatchesFreshSnapshot(t *testing.T) {
	cfg := Config{PEs: 64, Threads: 4, Width: 16, LocalMemWords: 32}
	m := newMachine(t, cfg, dirtySrc)
	fresh := m.Snapshot()
	run(t, m)
	if bytes.Equal(m.Snapshot(), fresh) {
		t.Fatal("program left no architectural trace; test is vacuous")
	}
	m.Reset()
	if !bytes.Equal(m.Snapshot(), fresh) {
		t.Error("reset snapshot differs from fresh snapshot")
	}
	// A reset machine must also run to the same final state again.
	run(t, m)
	rerun := m.Snapshot()
	m2 := newMachine(t, cfg, dirtySrc)
	run(t, m2)
	if !bytes.Equal(rerun, m2.Snapshot()) {
		t.Error("rerun after reset diverges from a fresh run")
	}
}

// TestResetAfterTrap proves a machine is recyclable even when its last run
// ended in an architectural trap mid-instruction-stream.
func TestResetAfterTrap(t *testing.T) {
	cfg := Config{PEs: 4, Threads: 2}
	m := newMachine(t, cfg, `
		li s1, 60
		sw s1, 4090(s1)   ; traps: address 4150 out of range
		halt
	`)
	if _, err := m.ExecDecoded(0, dec(m.prog[0])); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ExecDecoded(0, dec(m.prog[1])); err == nil {
		t.Fatal("expected a trap")
	}
	m.Reset()
	fresh := newMachine(t, cfg, `
		li s1, 60
		sw s1, 4090(s1)   ; traps: address 4150 out of range
		halt
	`)
	if !bytes.Equal(m.Snapshot(), fresh.Snapshot()) {
		t.Error("reset after trap differs from fresh machine")
	}
}

// TestSetProgramReuse retargets one machine at a second program
// (SetDecoded, then Reset, as the pool's checkout does) and checks it
// computes the same result as a machine built for that program.
func TestSetProgramReuse(t *testing.T) {
	cfg := Config{PEs: 8, Threads: 2, Width: 16}
	m := newMachine(t, cfg, dirtySrc)
	run(t, m)

	src2 := `
		pidx p1
		rmax s1, p1
		sw s1, 0(s0)
		halt
	`
	fresh := newMachine(t, cfg, src2)
	run(t, fresh)

	m.SetDecoded(fresh.dec)
	m.Reset()
	run(t, m)
	if got, want := m.ScalarMem(0), fresh.ScalarMem(0); got != want {
		t.Errorf("reused machine mem[0] = %d, want %d", got, want)
	}
	if !bytes.Equal(m.Snapshot(), fresh.Snapshot()) {
		t.Error("reused machine final snapshot differs from fresh machine")
	}
}

// TestResetClearsEveryWriter pins Reset's dirty extents: each memory
// writer in turn puts a word at the highest local word (of the last PE)
// or the highest scalar address, or both, and Reset must then restore the
// fresh snapshot — on a solo machine, on a middle gang lane reset alone,
// and on a whole gang through ResetLanes. A writer that forgot to raise
// its extent leaves its word behind.
func TestResetClearsEveryWriter(t *testing.T) {
	cfg := Config{PEs: 4, Threads: 2, Width: 16, LocalMemWords: 8, ScalarMemWords: 16}
	lmw, smw := cfg.LocalMemWords, cfg.ScalarMemWords
	psw := isa.Inst{Op: isa.PSW, Rd: 1, Ra: 0, Imm: int32(lmw - 1)}.Canonical()
	sw := isa.Inst{Op: isa.SW, Rd: 1, Ra: 0, Imm: int32(smw - 1)}
	prog := []isa.Inst{psw, sw, {Op: isa.HALT}}
	dp, err := isa.DecodeProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	// primed sets the value the store instructions write: p1 of the last
	// PE and s1.
	primed := func(m *Machine) {
		m.SetParallel(0, cfg.PEs-1, 1, 9)
		m.SetScalar(0, 1, 9)
	}
	highRows := func() [][]int64 {
		rows := make([][]int64, cfg.PEs)
		rows[cfg.PEs-1] = make([]int64, lmw)
		rows[cfg.PEs-1][lmw-1] = 9
		return rows
	}
	highScalars := func() []int64 {
		img := make([]int64, smw)
		img[smw-1] = 9
		return img
	}
	writers := []struct {
		name string
		// local and scalar say which memory the writer reaches.
		local, scalar bool
		write         func(m *Machine) error
	}{
		{"LoadLocalMem", true, false, func(m *Machine) error { return m.LoadLocalMem(highRows()) }},
		{"LoadScalarMem", false, true, func(m *Machine) error { return m.LoadScalarMem(highScalars()) }},
		{"PSW", true, false, func(m *Machine) error {
			primed(m)
			_, err := m.ExecDecoded(0, dp.At(0))
			return err
		}},
		{"SW", false, true, func(m *Machine) error {
			primed(m)
			m.SetPC(0, 1)
			_, err := m.ExecDecoded(0, dp.At(1))
			return err
		}},
		{"ExecRef/PSW", true, false, func(m *Machine) error {
			primed(m)
			_, err := m.ExecRef(0, psw)
			return err
		}},
		{"ExecRef/SW", false, true, func(m *Machine) error {
			primed(m)
			m.SetPC(0, 1)
			_, err := m.ExecRef(0, sw)
			return err
		}},
		{"Restore", true, true, func(m *Machine) error {
			donor, err := NewDecoded(cfg, dp)
			if err != nil {
				return err
			}
			if err := donor.LoadLocalMem(highRows()); err != nil {
				return err
			}
			if err := donor.LoadScalarMem(highScalars()); err != nil {
				return err
			}
			return m.Restore(donor.Snapshot())
		}},
	}
	for _, w := range writers {
		for _, shape := range []string{"solo", "gang-lane", "gang-ResetLanes"} {
			t.Run(fmt.Sprintf("%s/%s", w.name, shape), func(t *testing.T) {
				n := 3
				if shape == "solo" {
					n = 1
				}
				lanes, err := NewGangLanes(cfg, dp, n)
				if err != nil {
					t.Fatal(err)
				}
				m := lanes[n/2]
				fresh := m.Snapshot()
				if err := w.write(m); err != nil {
					t.Fatal(err)
				}
				if w.local && m.LocalMem(cfg.PEs-1, lmw-1) != 9 {
					t.Fatal("the writer did not reach the highest local word")
				}
				if w.scalar && m.ScalarMem(smw-1) != 9 {
					t.Fatal("the writer did not reach the highest scalar word")
				}
				if shape == "gang-ResetLanes" {
					ResetLanes(lanes)
				} else {
					m.Reset()
				}
				if !bytes.Equal(m.Snapshot(), fresh) {
					t.Error("reset snapshot differs from the fresh snapshot")
				}
			})
		}
	}
}
